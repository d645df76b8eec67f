"""Seeded pseudo-random generation of terms and assignments for tests,
a reference evaluator to check the library's evaluator against, and
pairs of terms derived from a theory's axioms to check its decision
procedure against.

Budget-driven recursive growth; the budget bounds the node count, so
random_term(rng, sig, n) always satisfies term_size <= n and conforms
to sig.  Deterministic given the Random instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from hypothesis import strategies as st

from meadows import (
    ONE,
    ZERO,
    Add,
    Carrier,
    Div,
    Inv,
    Mul,
    Neg,
    One,
    PunchId,
    SignatureId,
    Term,
    Var,
    Zero,
    free_vars,
    theory,
)
from meadows.terms import rebuild
from meadows.theories import TheoryId


def random_term(
    rng: random.Random,
    sig: SignatureId,
    max_size: int,
    variables: Sequence[str] = (),
) -> Term:
    return _grow(rng, sig, rng.randint(1, max_size), tuple(variables))


def _grow(rng: random.Random, sig: SignatureId, budget: int, variables: tuple[str, ...]) -> Term:
    ops = []
    if budget >= 3:
        ops += ["add"] * 3 + ["mul"] * 3
        if Div in sig.constructors:
            ops += ["div"] * 2
    if budget >= 2:
        if Inv in sig.constructors:
            ops += ["inv"] * 2
        if Neg in sig.constructors:
            ops.append("neg")
    if not ops or rng.random() < 0.2:
        leaves = ["one"]
        if Zero in sig.constructors:
            leaves.append("zero")
        if variables:
            leaves += ["var", "var"]
        pick = rng.choice(leaves)
        if pick == "one":
            return ONE
        if pick == "zero":
            return ZERO
        return Var(rng.choice(variables))
    op = rng.choice(ops)
    if op == "inv":
        return Inv(_grow(rng, sig, budget - 1, variables))
    if op == "neg":
        return Neg(_grow(rng, sig, budget - 1, variables))
    split = rng.randint(1, budget - 2)
    left = _grow(rng, sig, split, variables)
    right = _grow(rng, sig, budget - 1 - split, variables)
    return {"add": Add, "mul": Mul, "div": Div}[op](left, right)


def random_rational(rng: random.Random, carrier: Carrier) -> Fraction:
    if carrier is not Carrier.POSITIVE and rng.random() < 0.25:
        return Fraction(0)
    value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if carrier is Carrier.ALL and rng.random() < 0.5:
        value = -value
    return value


def random_env(
    rng: random.Random, variables: Sequence[str], carrier: Carrier
) -> dict[str, Fraction]:
    return {v: random_rational(rng, carrier) for v in variables}


def reference_value(
    t: Term, env: Mapping[str, Fraction], punch: Optional[PunchId] = None
) -> Optional[Fraction]:
    """The value of ``t`` by structural recursion on reduced ``Fraction``s.

    Without a punch, 0^-1 = 0 and q / 0 = 0.  Under a punch those points
    are None instead (except 0 / 0 under DIV_NONZERO0), and None swallows
    every operation above it.  No carrier or signature checks: small
    terms only.
    """
    if isinstance(t, Var):
        return Fraction(env[t.name])
    if isinstance(t, (Zero, One)):
        return Fraction(isinstance(t, One))
    if isinstance(t, (Neg, Inv)):
        a, b = Fraction(1), reference_value(t.arg, env, punch)
    else:
        a, b = reference_value(t.left, env, punch), reference_value(t.right, env, punch)
    if a is None or b is None:
        return None
    if isinstance(t, Neg):
        return -b
    if isinstance(t, Add):
        return a + b
    if isinstance(t, Mul):
        return a * b
    if b:  # Inv or Div
        return a / b
    if punch is None or punch is PunchId.DIV_NONZERO0 and a == 0:
        return Fraction(0)
    return None


@st.composite
def derived_pairs(draw, id: TheoryId, steps: int = 8, max_size: int = 8):
    """A random term of ``id``'s signature and the term that ``steps``
    rewrites with its equational axioms lead to.  Each step picks an axiom
    and a direction that match somewhere, then one position where they
    match; a variable of the new side that the match leaves unbound gets a
    random term.  Equational logic derives every step (Birkhoff, 1935), so
    the two terms are provably equal in ``id``.
    """
    rng = draw(st.randoms(use_true_random=False))
    sig, variables = theory(id).signature, ("x", "y", "z")
    rules = [r for eq in theory(id).equations for r in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs))]
    start = t = random_term(rng, sig, max_size, variables)
    for _ in range(steps):
        positions = list(_positions(t, ()))
        applicable = []
        for pattern, result in rules:
            found = []
            for path, sub in positions:
                binding: dict[str, Term] = {}
                if _match(pattern, sub, binding):
                    found.append((path, binding))
            if found:
                applicable.append((result, found))
        result, found = rng.choice(applicable)
        path, binding = rng.choice(found)
        for name in free_vars(result):
            binding.setdefault(name, random_term(rng, sig, 4, variables))
        t = _replace(t, path, _instance(result, binding))
    return start, t


def _children(t: Term) -> tuple[Term, ...]:
    return (t.left, t.right) if t._arity == 2 else (t.arg,) if t._arity else ()


def _positions(t: Term, path: tuple[int, ...]):
    """Each subterm of ``t`` with its path of child indices, ``t`` first."""
    yield path, t
    for i, child in enumerate(_children(t)):
        yield from _positions(child, (*path, i))


def _match(pattern: Term, t: Term, binding: dict[str, Term]) -> bool:
    """Whether ``t`` is an instance of ``pattern``, extending ``binding`` to show it."""
    if isinstance(pattern, Var):
        return binding.setdefault(pattern.name, t) == t
    return pattern.__class__ is t.__class__ and all(
        _match(p, c, binding) for p, c in zip(_children(pattern), _children(t))
    )


def _instance(pattern: Term, binding: Mapping[str, Term]) -> Term:
    """``pattern`` with each variable replaced at once by its bound term."""
    if isinstance(pattern, Var):
        return binding[pattern.name]
    return rebuild(pattern, *(_instance(c, binding) for c in _children(pattern)))


def _replace(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    children = list(_children(t))
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return rebuild(t, *children)
