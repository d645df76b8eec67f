"""Pure syntax maps between divisive and inversive terms.

Division abbreviates multiplication by an inverse: p / q stands for
p * q^-1, and conversely x^-1 stands for 1 / x.  The maps rewrite
structurally and never simplify (no collapsing of 1 * u); readability
is the normalizer's job, value preservation under the zero-totalized
semantics is this module's.
"""

from __future__ import annotations

from .exceptions import MixedSignature
from .terms import ONE, Div, Inv, Mul, Term, fold, rebuild


def div_to_inv(t: Term) -> Term:
    """Rewrite every u / v into u * v^-1.  The input must not contain ^-1."""

    def visit(node: Term, *children: Term) -> Term:
        if node.__class__ is Div:
            return Mul(children[0], Inv(children[1]))
        if node.__class__ is Inv:
            raise MixedSignature("term already contains an inverse")
        return rebuild(node, *children)

    return fold(t, visit)


def inv_to_div(t: Term) -> Term:
    """Rewrite every u^-1 into 1 / u.  The input must not contain /."""

    def visit(node: Term, *children: Term) -> Term:
        if node.__class__ is Inv:
            return Div(ONE, children[0])
        if node.__class__ is Div:
            raise MixedSignature("term already contains a division")
        return rebuild(node, *children)

    return fold(t, visit)
