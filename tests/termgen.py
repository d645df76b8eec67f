"""Seeded pseudo-random generation of terms and assignments for tests,
and a reference evaluator to check the library's evaluator against.

Budget-driven recursive growth; the budget bounds the node count, so
random_term(rng, sig, n) always satisfies term_size <= n and conforms
to sig.  Deterministic given the Random instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
)


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
        if sig.has_div:
            ops += ["div"] * 2
    if budget >= 2:
        if sig.has_inv:
            ops += ["inv"] * 2
        if sig.has_neg:
            ops.append("neg")
    if not ops or rng.random() < 0.2:
        leaves = ["one"]
        if sig.has_zero:
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
