"""Decision procedures for equations between arithmetical meadow terms.

Over the zero-free signature, t = u is provable exactly when the two
sides denote the same function on positive rationals; splitting each
side into a polynomial fraction and comparing cross products reduces
the question to syntactic equality of positive polynomials
(``decide_iamd``).  The cross products are kept as products of factors,
and the factors they share cancel before the rest is expanded, which
is exact because positive polynomials are nonzero.

With 0 in the signature and the general inverse law (x != 0 implies
x * x^-1 = 1) assumed, every variable is 0 or invertible, so provability
is decided by cases over the sets of variables set to 0
(``decide_iamdz_gil``).  The 0/1 points with at most one variable 0 come
first; then the sides are compared with each inverse an opaque atom
(sides equal as polynomials over the variables and atoms are equal by the
semiring laws and congruence alone: Grégoire & Mahboubi, TPHOLs 2005);
only then comes the split.  The split visits only the zero sets at which
one more inverted argument of a visited case vanishes, builds each case's
sides from that case's in one restriction fold, and decides each distinct
case once by the zero-free comparison, kept as evidence.

Divisive equations are decided by translating division away; closed
terms of any of the seven signatures are decided by comparing their
normal forms, which are their exact values (``decide_closed``), so
evaluation doubles as an independent oracle for the syntactic procedures.

A false verdict of an open-term procedure carries a concrete
counterexample assignment; one of ``decide_closed`` carries the two
distinct values.  The open-term procedures first evaluate the two sides
exactly at 0/1 points (the all-ones point, or the points with at most
one variable 0) with the evaluator of :mod:`meadows.evaluate`, which
also checks the signature, and refute at the first point that separates
them, before normalizing or translating anything; true verdicts come
only from matched normal forms.  Otherwise the zero-carrying split lifts
the counterexample of the first failing case, and the zero-free search
specializes the two distinct cross-product polynomials one variable at a
time to small positive integers at which they differ
(``PosPoly.separating_point``), which always succeeds because a nonzero
polynomial has only finitely many roots per variable; variables that
cancelled out are set to 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Callable, Container, NamedTuple, Union

from .evaluate import Carrier, _evaluator, eval_total, exact_str
from .exceptions import NotInSignature, SizeLimit
from .normalize import (
    DEFAULT_MAX_MONOMIALS,
    PosPoly,
    _cross_products,
    _restrict,
    closed_normal,
    split_inverse,
    zero_elim,
)
from .terms import (
    ZERO,
    Add,
    Inv,
    One,
    SignatureId,
    Term,
    Var,
    Zero,
    _unchecked_var,
    conforms,
    fold,
    free_vars,
    rebuild,
    substitute,  # noqa: F401  (bench/tracing.py wraps decide.substitute)
)
from .theories import TheoryId
from .translate import div_to_inv

_GUARD_FAMILY_LIMIT = 16


class MatchedNormals(NamedTuple):
    """The two normal forms the procedure compared (equal iff verdict true):
    cross-product polynomials, or the values of closed sides."""

    lhs: Union[PosPoly, Fraction]
    rhs: Union[PosPoly, Fraction]

    def render(self) -> str:
        return f"{exact_str(self.lhs)}  vs  {exact_str(self.rhs)}"


class Counterexample(NamedTuple):
    """An assignment on which the two sides evaluate to different rationals."""

    assignment: dict[str, Fraction]
    lhs_value: Fraction
    rhs_value: Fraction

    def render(self) -> str:
        binds = ", ".join(f"{v} = {exact_str(q)}" for v, q in sorted(self.assignment.items()))
        if not binds:
            binds = "(empty)"
        return f"{binds}  gives  {exact_str(self.lhs_value)} != {exact_str(self.rhs_value)}"


class TraceStep(NamedTuple):
    description: str
    decision: "Decision"


class RecursionTrace(NamedTuple):
    """The true cases of the zero-set split, one per case decided, named
    ``"all variables nonzero"``, ``"x = 0"``, ``"x = 0, y = 0"``, ..."""

    steps: tuple[TraceStep, ...]

    def render(self) -> str:
        return "; ".join(f"{step.description}: true" for step in self.steps)


Evidence = Union[MatchedNormals, Counterexample, RecursionTrace]


class Decision(NamedTuple):
    verdict: bool
    evidence: Evidence


def decide_iamd(t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> Decision:
    """Decide provable equality of two zero-free arithmetical terms.

    Both sides are evaluated exactly at the all-ones point first: zero-free
    terms are positive-valued, so sides that differ there are refuted at
    that point without being expanded.  Otherwise both sides are split into
    polynomial fractions t1/t2 and u1/u2, kept as products of factors, and
    the equation is provable iff the cross products t1*u2 and u1*t2 are
    the same polynomial.  The factors the two cross products share cancel
    first, so the matched normals are the expanded remainders; if they
    differ, the counterexample is a point of small positive integers where
    they do.  ``max_monomials`` bounds every polynomial actually built.
    """
    return _refuted_at(t, u, SignatureId.IAMD, [()]) or _decide_zero_free(t, u, max_monomials)


def _decide_zero_free(t: Term, u: Term, max_monomials: int) -> Decision:
    """``decide_iamd`` without the all-ones refutation, which only saves
    work: for sides already compared at that point."""
    lhs, rhs = _cross_products(t, u, max_monomials)
    if lhs == rhs:
        return Decision(True, MatchedNormals(lhs, rhs))
    # The sides differ wherever the cross products do, since the cancelled
    # factors and the denominators are positive at positive points.  The
    # variables the remainders lack are free, so they are set to 1.
    point = lhs.separating_point(rhs)
    env = {v: Fraction(point.get(v, 1)) for v in sorted({*free_vars(t), *free_vars(u)})}
    return Decision(False, _counterexample(t, u, env, Carrier.POSITIVE))


def _refuted_at(t: Term, u: Term, sig: SignatureId, patterns, variables=None) -> Decision | None:
    """A false verdict at the first 0/1 point where the sides differ, else None.
    Each pattern is the set of variables at 0 there; the first point checks ``sig``.
    Only a refutation lists ``variables``, or both sides' variables when None."""
    allowed, refuse = sig.constructors, _not_in(sig)
    lhs, rhs = _evaluator(t, allowed, refuse), _evaluator(u, allowed, refuse)
    for zeros in patterns:
        point = _zero_one(zeros)
        p, q, _ = lhs(point)
        r, s, _ = rhs(point)
        if p * s != r * q:
            names = sorted({*free_vars(t), *free_vars(u)}) if variables is None else variables
            env = {v: Fraction(0) if v in zeros else Fraction(1) for v in names}
            return Decision(False, Counterexample(env, Fraction(p, q), Fraction(r, s)))
    return None


def _zero_one(zeros: Container[str]) -> Callable[[str], tuple[int, int]]:
    """The variable lookup of the point where ``zeros`` are 0 and the rest 1."""
    return lambda name: (0, 1) if name in zeros else (1, 1)


def _not_in(sig: SignatureId) -> Callable[[type], NotInSignature]:
    """The error for a constructor outside ``sig``."""
    return lambda kind: NotInSignature(f"both sides must conform to the {sig.value} signature")


def _counterexample(
    t: Term, u: Term, env: dict[str, Fraction], carrier: Carrier
) -> Counterexample:
    """Both sides evaluated at ``env``; a counterexample when the values differ."""
    return Counterexample(env, eval_total(t, env, carrier), eval_total(u, env, carrier))


def decide_closed(t: Term, u: Term, sig: SignatureId) -> Decision:
    """Decide equality of closed terms over ``sig`` by comparing their exact
    values (``closed_normal``): provability in the rational specifications
    (``ratzi``, ``ratiaz``, ...), not in the bare theory of ``sig``."""
    lhs, rhs = closed_normal(t, sig), closed_normal(u, sig)
    return Decision(lhs == rhs, MatchedNormals(lhs, rhs))


def decide_iamdz_gil(t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> Decision:
    """Decide provability from the zero-carrying theory plus the general inverse law.

    Under the law every variable is 0 or invertible, so the equation is
    provable exactly when it holds for each set S of its variables taken
    to be 0 and the rest nonzero.  Not every S needs a case of its own:
    if the case of C holds and no inverted argument that is nonzero at C
    vanishes at S ⊇ C, every denominator is nonzero at S, so the cross
    products that matched at C give equal values there too.  This holds
    for every inverted argument, not only the final denominator:
    ``(1 + x^-1)^-1`` has denominator ``x + 1``, yet is 1 at x = 0.  So
    the split starts from the empty zero set and queues, after each case
    C, the sets C ∪ T for every minimal zero set T of an inverted argument
    in C's reduced pair (``_guards``); elimination turns 0^-1 into 0, so
    each such argument is nonzero at C.  It visits zero sets by size, each
    size in the lexicographic order of its sorted variables, so a
    refutation comes from the first failing zero set in that order; a set
    is always larger than the case that queues it.  The reduced pair of a
    queued set is that of the case which queued it, restricted by one fold
    per side to the set's variables at 0 (``_restrict``); those already 0
    at that case no longer occur in its pair.  A pair not met before
    is decided once: both sides 0 is true, and stays so at every larger
    zero set; exactly one side 0 is false (a zero-free term is positive
    at the all-ones point); otherwise the zero-free comparison decides.
    A true verdict carries these case decisions as a ``RecursionTrace``,
    or the decision itself when only one case was decided, as for an
    inverse-free identity; a false one carries a counterexample from the
    first failing case.

    The split is the last of three steps.  First the sides are evaluated
    at the n + 1 points with at most one variable 0.  Then, only if the
    split would decide more than one case, the zero-eliminated sides are
    compared with each inverse an opaque atom (``_atomized``); matched
    polynomials prove the equation by the semiring laws and congruence,
    and are the evidence.  Last comes the split, the only
    search past the single zeros: each case it decides there evaluates
    its sides at its own all-ones point before comparing them
    (``decide_iamd``).  As the check proves no false equation, the order
    changes no verdict.  A case past ``max_monomials`` raises ``SizeLimit``
    unless one of the first ``max_monomials`` 0/1 points with two or more
    zeros, in the split's order, refutes.
    """
    variables, sig = sorted({*free_vars(t), *free_vars(u)}), SignatureId.IAMDZ
    if not variables:
        # A closed equation is decided by its sides' exact values, each evaluated once.
        point, allowed, refuse = _zero_one(()), sig.constructors, _not_in(sig)
        lhs, rhs = (Fraction(*_evaluator(side, allowed, refuse)(point)[:2]) for side in (t, u))
        evidence = MatchedNormals(lhs, rhs) if lhs == rhs else Counterexample({}, lhs, rhs)
        return Decision(lhs == rhs, evidence)
    # A derivable equation holds at every non-negative point, so any
    # separating 0/1 point refutes it outright, simplest points first.
    if refuted := _refuted_at(t, u, sig, [(), *zip(variables)], variables):
        return refuted
    # Zero sets are masks, with bit n-1-i for the i-th variable: among the
    # sets of one size the larger mask comes first in lexicographic order.
    n = len(variables)
    bits = [1 << (n - 1 - i) for i in range(n)]
    bit = dict(zip(variables, bits))
    root = zero_elim(t), zero_elim(u)
    root_guards = set() if ZERO in root else _guards(root, bit)
    if root_guards:
        # Past the bound the split, which expands no atom, may still decide.
        try:
            lhs, rhs = _cross_products(*_atomized(root, max_monomials), max_monomials)
            if lhs == rhs:
                return Decision(True, MatchedNormals(lhs, rhs))
        except SizeLimit:
            pass
    steps: list[TraceStep] = []
    # Each decided pair maps to its guards: the zero sets its children add to its own.
    decided: dict[tuple[Term, Term], set[int]] = {}
    # Level k maps each queued zero set of k variables to the reduced pair of
    # the case that queued it, which has fewer variables at 0.
    queued: list[dict[int, tuple[Term, Term]]] = [{0: root}, *({} for _ in variables)]
    for level in queued:
        for mask in sorted(level, reverse=True):
            pair = level[mask]
            zeros = [var for var, b in zip(variables, bits) if mask & b]
            if zeros:
                pair = _restrict(pair[0], zeros), _restrict(pair[1], zeros)
            guards = decided.get(pair)
            if guards is None:
                s, s2 = pair
                if isinstance(s, Zero) != isinstance(s2, Zero):
                    # One side is derivably 0, the other is zero-free and therefore
                    # strictly positive at the all-ones assignment.
                    ones = dict.fromkeys(free_vars(s) + free_vars(s2), Fraction(1))
                    return _refutation(t, u, variables, ones)
                if isinstance(s, Zero):
                    decision = Decision(True, MatchedNormals(Fraction(0), Fraction(0)))
                    guards = set()  # both sides stay 0 at every larger zero set
                else:
                    # The pre-search already compared the single zeros' sides at all-ones.
                    decide = _decide_zero_free if len(zeros) <= 1 else decide_iamd
                    try:
                        decision = decide(s, s2, max_monomials)
                    except SizeLimit:
                        # 0/1 points with two or more zeros may still refute, in split order.
                        sets = chain.from_iterable(
                            combinations(variables, k) for k in range(2, n + 1)
                        )
                        if refuted := _refuted_at(
                            t, u, sig, islice(sets, max_monomials), variables
                        ):
                            return refuted
                        raise
                    if not decision.verdict:
                        assert isinstance(decision.evidence, Counterexample)
                        return _refutation(t, u, variables, decision.evidence.assignment)
                    guards = _guards(pair, bit) if mask else root_guards
                decided[pair] = guards
                case = ", ".join(f"{var} = 0" for var in zeros) or "all variables nonzero"
                steps.append(TraceStep(case, decision))
            for m in guards:
                child = mask | m
                queued[child.bit_count()].setdefault(child, pair)
        level.clear()
    if len(steps) == 1:
        # A single case, as for an inverse-free equation: no case split.
        return steps[0].decision
    return Decision(True, RecursionTrace(tuple(steps)))


def _atomized(pair: tuple[Term, Term], max_monomials: int) -> tuple[Term, Term]:
    """Zero-free ``pair`` with each inverse an opaque atom: a leaf named by the
    inverse text of its argument's normal form, such as ``(x + y)^-1``.
    An argument met more than once, on either side, is normalized once."""
    leaves: dict[Term, Term] = {}

    def visit(node: Term, *children: Term) -> Term:
        if node.__class__ is not Inv:
            return rebuild(node, *children)
        leaf = leaves.get(children[0])
        if leaf is None:
            text = split_inverse(children[0], max_monomials).numerator.render()
            name = f"({text})^-1" if " " in text or "*" in text else f"{text}^-1"
            leaf = leaves[children[0]] = _unchecked_var(name)
        return leaf

    return fold(pair[0], visit), fold(pair[1], visit)


def _guards(pair: tuple[Term, Term], bit: dict[str, int]) -> set[int]:
    """The minimal zero sets of the inverted arguments of zero-free ``pair``, as masks.

    Whether a zero-free term is 0 depends only on its zero set, and the
    sets where it is are closed upwards, so the minimal ones describe
    them: a variable is 0 at its own set, 1 nowhere, a sum where both
    operands are, a product where either is, and an inverse where its
    argument is.  The sets are masks of the bits in ``bit``.  An argument
    with more than ``_GUARD_FAMILY_LIMIT`` minimal sets gives its single
    variables instead, one of which lies in each of them.
    """
    guards: set[int] = set()

    def visit(node: Term, a=None, b=None):
        kind = node.__class__
        if kind is Var:
            m = bit[node.name]
            return (m,), m
        if kind is One:
            return (), 0
        if kind is Inv:
            family, support = a
            if family is None:
                family = [m for m in bit.values() if m & support]
            guards.update(family)
            return a
        (fa, sa), (fb, sb) = a, b
        if fa is None or fb is None:
            return None, sa | sb
        if kind is Add:
            return _minimal({x | y for x in fa for y in fb}), sa | sb
        return _minimal({*fa, *fb}), sa | sb

    for side in pair:
        fold(side, visit)
    return guards


def _minimal(masks: set[int]) -> tuple[int, ...] | None:
    """The inclusion-minimal ``masks``, fewest bits first; None past ``_GUARD_FAMILY_LIMIT``."""
    if len(masks) == 1:
        return tuple(masks)
    kept: list[int] = []
    for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if all(k & ~m for k in kept):
            kept.append(m)
            if len(kept) > _GUARD_FAMILY_LIMIT:
                return None
    return tuple(kept)


def _refutation(t: Term, u: Term, variables: list[str], env: dict[str, Fraction]) -> Decision:
    """A false verdict at ``env``, with every variable it leaves out set to 0."""
    full = {**dict.fromkeys(variables, Fraction(0)), **env}
    return Decision(False, _counterexample(t, u, full, Carrier.NON_NEGATIVE))


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
        # The all-ones fold checks the signature and refutes before translating,
        # and translation keeps the values it compared.
        refuted = _refuted_at(t, u, SignatureId.DAMD, [()])
        return refuted or _decide_zero_free(div_to_inv(t), div_to_inv(u), max_monomials)
    if theory is not TheoryId.RATDAZ_GIL:
        raise ValueError(f"no divisive decision procedure for theory {theory.value}")
    if not (conforms(t, SignatureId.DAMDZ) and conforms(u, SignatureId.DAMDZ)):
        raise NotInSignature("both sides must conform to the damdz signature")
    return decide_iamdz_gil(div_to_inv(t), div_to_inv(u), max_monomials)
