"""Canonical forms for arithmetical meadow terms.

Inverse-free terms over {1, +, *} normalize to polynomials with strictly
positive integer coefficients (``PosPoly``); positivity is structural,
since the signature has no subtraction.  A term with inverses splits
into a numerator/denominator pair of such polynomials (``PolyFraction``)
by pushing the inverse through products and collapsing double inverses.
Closed terms reduce further to their rational value, a
``fractions.Fraction``: positive without 0 in the signature, non-negative
with it, and of any sign for full meadow terms.

Two inverse-free terms are provably equal over the arithmetical-meadow
axioms exactly when their ``PosPoly`` forms coincide, which is what the
decision procedures in :mod:`meadows.decide` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .exceptions import ContainsInverse, NotClosed, NotInSignature, SizeLimit
from .terms import (
    ZERO,
    Add,
    Inv,
    Mul,
    One,
    SignatureId,
    Term,
    Var,
    Zero,
    conforms,
    constructors,
    fold,
    free_vars,
    rebuild,
)

# Monomials are sparse exponent vectors: ((var, exp), ...) sorted by
# variable name, every exponent >= 1; () is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

DEFAULT_MAX_MONOMIALS = 100_000


class PosPoly:
    """Multivariate polynomial whose coefficients are all >= 1.

    The zero polynomial does not exist here: the mapping is never empty.
    Equality is plain map equality, independent of any monomial order;
    the graded-lexicographic order is used only for printing and
    deterministic iteration.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, int]):
        if not coeffs:
            raise ValueError("a positive polynomial has at least one monomial")
        for mono, coeff in coeffs.items():
            if coeff < 1:
                raise ValueError(f"coefficient {coeff} is not positive")
            if any(exp < 1 for _, exp in mono):
                raise ValueError(f"zero exponent stored in monomial {mono}")
            if list(mono) != sorted(mono):
                raise ValueError(f"monomial {mono} is not sorted by variable")
        self._coeffs = dict(coeffs)

    @classmethod
    def constant(cls, value: int) -> "PosPoly":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "PosPoly":
        return cls({((name, 1),): 1})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return f"PosPoly({self.render()})"

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Monomial/coefficient pairs in graded-lex descending order."""
        variables = self.variables
        def key(mono: Monomial):
            exps = dict(mono)
            vector = tuple(exps.get(v, 0) for v in variables)
            return (sum(vector), vector)
        for mono in sorted(self._coeffs, key=key, reverse=True):
            yield mono, self._coeffs[mono]

    @property
    def variables(self) -> tuple[str, ...]:
        names = {v for mono in self._coeffs for v, _ in mono}
        return tuple(sorted(names))

    @property
    def is_constant(self) -> bool:
        return set(self._coeffs) == {()}

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._coeffs[()]

    def separating_point(self, other: "PosPoly") -> dict[str, int]:
        """Positive integers, one per variable of either polynomial, at which
        this polynomial and a distinct ``other`` take different values.

        Fixes the variables one at a time, each to the least of 1..d+1 that
        keeps the two specializations distinct, where d is its highest
        exponent: the difference is a polynomial of degree at most d in that
        variable, so at most d of those values are roots.  Positive values
        keep every coefficient positive, so no signed difference is formed.
        """
        if self == other:
            raise ValueError("equal polynomials take the same value everywhere")
        a, b = self._coeffs, other._coeffs
        point: dict[str, int] = {}
        for var in sorted({*self.variables, *other.variables}):
            degree = max(dict(mono).get(var, 0) for mono in (*a, *b))
            for value in range(1, degree + 2):
                a_at, b_at = _specialize(a, var, value), _specialize(b, var, value)
                if a_at != b_at:
                    break
            point[var] = value
            a, b = a_at, b_at
        return point

    def add(self, other: "PosPoly") -> "PosPoly":
        merged = dict(self._coeffs)
        for mono, coeff in other._coeffs.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return PosPoly(merged)

    def mul(self, other: "PosPoly", max_monomials: int = DEFAULT_MAX_MONOMIALS) -> "PosPoly":
        # x * 1 = x; a PosPoly is immutable, so the other factor is the product.
        if other._coeffs == _UNIT._coeffs:
            return self
        if self._coeffs == _UNIT._coeffs:
            return other
        product: dict[Monomial, int] = {}
        for mono_a, coeff_a in self._coeffs.items():
            exps_a = dict(mono_a)
            for mono_b, coeff_b in other._coeffs.items():
                exps = dict(exps_a)
                for v, e in mono_b:
                    exps[v] = exps.get(v, 0) + e
                key = tuple(sorted(exps.items()))
                product[key] = product.get(key, 0) + coeff_a * coeff_b
                if len(product) > max_monomials:
                    raise SizeLimit(len(product), max_monomials)
        return PosPoly(product)

    def __add__(self, other: "PosPoly") -> "PosPoly":
        return self.add(other)

    def __mul__(self, other: "PosPoly") -> "PosPoly":
        return self.mul(other)

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self._coeffs.items():
            value = Fraction(coeff)
            for v, e in mono:
                value *= env[v] ** e
            total += value
        return total

    def render(self) -> str:
        """Canonical text: graded-lex descending, e.g. ``2*x^2*y + x + 3``."""
        parts = []
        for mono, coeff in self.items():
            factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff), *factors]))
        return " + ".join(parts)

    __str__ = render


_UNIT = PosPoly.constant(1)


def _specialize(coeffs: Mapping[Monomial, int], var: str, value: int) -> dict[Monomial, int]:
    """The coefficient map with ``var`` set to the positive integer ``value``."""
    out: dict[Monomial, int] = {}
    for mono, coeff in coeffs.items():
        exps = dict(mono)
        exponent = exps.pop(var, 0)
        key = tuple(exps.items())  # removing one variable keeps the order
        out[key] = out.get(key, 0) + coeff * value**exponent
    return out


@dataclass(frozen=True)
class PolyFraction:
    """Numerator/denominator pair of positive polynomials.

    No polynomial cancellation is attempted: the decision procedure
    compares cross products, so reduced form is unnecessary, and the
    subtraction-free setting offers no factorization to exploit anyway.
    """

    numerator: PosPoly
    denominator: PosPoly

    def __iter__(self) -> Iterator[PosPoly]:
        return iter((self.numerator, self.denominator))

    def render(self) -> str:
        return f"({self.numerator.render()}) / ({self.denominator.render()})"


def split_inverse(t: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> PolyFraction:
    """Split a zero-free arithmetical term into an inverse-free fraction.

    The inverse distributes over products and cancels with itself, so a
    single inverse can be floated to the top; both components are then
    polynomial-normalized.  The result denotes the same value as ``t``
    at every positive point, and numerator * denominator^-1 is provably
    equal to ``t``.
    """

    def visit(node: Term, a=None, b=None) -> PolyFraction:
        kind = node.__class__
        if kind is Add:
            num = a.numerator.mul(b.denominator, max_monomials).add(
                b.numerator.mul(a.denominator, max_monomials)
            )
            if len(num) > max_monomials:
                raise SizeLimit(len(num), max_monomials)
            return PolyFraction(num, a.denominator.mul(b.denominator, max_monomials))
        if kind is Mul:
            return PolyFraction(
                a.numerator.mul(b.numerator, max_monomials),
                a.denominator.mul(b.denominator, max_monomials),
            )
        if kind is Inv:
            return PolyFraction(a.denominator, a.numerator)
        if kind is One:
            return PolyFraction(_UNIT, _UNIT)
        if kind is Var:
            return PolyFraction(PosPoly.variable(node.name), _UNIT)
        raise NotInSignature(f"{kind.__name__} does not occur in the iamd signature")

    return fold(t, visit)


def poly_normal(t: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> PosPoly:
    """Normalize an inverse-free term over {1, +, *} to a PosPoly.

    Fully distributes products over sums and merges equal monomials by
    adding coefficients.  Two inverse-free terms are equal over the
    arithmetical-meadow axioms iff their normal forms are equal.  Without
    an inverse, ``split_inverse`` leaves the denominator 1, so the
    numerator is the normal form.
    """
    if Inv in constructors(t):
        raise ContainsInverse("poly_normal expects an inverse-free term")
    return split_inverse(t, max_monomials).numerator


def closed_normal_iamd(t: Term) -> Fraction:
    """Normal form of a closed zero-free term: its value, a positive fraction.

    Closed terms over {1, +, *, ^-1} cannot denote 0.  Every polynomial of
    the split is a constant, so no monomial bound applies.
    """
    if not conforms(t, SignatureId.IAMD):
        raise NotInSignature("term does not conform to the iamd signature")
    if free_vars(t):
        raise NotClosed(f"term has free variables: {', '.join(free_vars(t))}")
    split = split_inverse(t)
    return Fraction(split.numerator.constant_value(), split.denominator.constant_value())


def zero_elim(t: Term) -> Term:
    """Eliminate the constant 0 from a term over {0, 1, +, *, ^-1}.

    Rewrites bottom-up with 0 + u = u, u + 0 = u, 0 * u = 0, u * 0 = 0
    and 0^-1 = 0.  The result is either the constant 0 (the term is
    provably 0) or a term with no 0 left, and is provably equal to ``t``.
    """
    if not conforms(t, SignatureId.IAMDZ):
        raise NotInSignature("zero elimination applies to iamdz terms")

    def visit(node: Term, *children: Term) -> Term:
        if not children:
            return node
        first, last = children[0].__class__ is Zero, children[-1].__class__ is Zero
        if node.__class__ is Add and (first or last):
            return children[1] if first else children[0]
        if first or last:  # a product or an inverse of 0
            return ZERO
        return rebuild(node, *children)

    return fold(t, visit)


def closed_normal_iamdz(t: Term) -> Fraction:
    """Normal form of a closed term over {0, 1, +, *, ^-1}: its value, 0 or positive."""
    if not conforms(t, SignatureId.IAMDZ):
        raise NotInSignature("term does not conform to the iamdz signature")
    if free_vars(t):
        raise NotClosed(f"term has free variables: {', '.join(free_vars(t))}")
    reduced = zero_elim(t)
    if isinstance(reduced, Zero):
        return Fraction(0)
    return closed_normal_iamd(reduced)


def closed_normal_full(t: Term) -> Fraction:
    """Signed normal form of a closed full-meadow term (inversive or divisive).

    Computed by exact zero-totalized evaluation; in the initial algebra,
    closed-term equality is value equality, so this is canonical.
    """
    if not (conforms(t, SignatureId.IMD) or conforms(t, SignatureId.DMD)):
        raise NotInSignature("term does not conform to the imd or dmd signature")
    if free_vars(t):
        raise NotClosed(f"term has free variables: {', '.join(free_vars(t))}")
    from .evaluate import Carrier, eval_total

    return eval_total(t, {}, Carrier.ALL)
