"""Canonical forms for arithmetical meadow terms.

Inverse-free terms over {1, +, *} normalize to polynomials with strictly
positive integer coefficients (``PosPoly``); positivity is structural,
since the signature has no subtraction.  A term with inverses splits
into a numerator/denominator pair of such polynomials (``PolyFraction``)
by pushing the inverse through products and collapsing double inverses.
Products stay unexpanded, as tuples of factors, until a sum needs their
polynomial, so the zero-free decision procedure can cancel the factors
two cross products share and expand only the rest (Davenport, Siret &
Tournier, *Computer Algebra*, 1988, on expanded and factored forms).
A closed term of any of the seven signatures normalizes to its exact
value, a ``fractions.Fraction`` (``closed_normal``): positive without 0
in the signature, non-negative with 0 but without negation, and of any
sign otherwise.

Two inverse-free terms are provably equal over the arithmetical-meadow
axioms exactly when their ``PosPoly`` forms coincide, which is what the
decision procedures in :mod:`meadows.decide` rely on.  A ``PosPoly``
packs each monomial into one int, so that multiplying two monomials is
one integer addition (Monagan & Pearce, CASC 2007).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import prod
from typing import Container, Iterator, Mapping, NamedTuple

from .evaluate import eval_total
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
    is_closed,
    rebuild,
)

# Monomials are sparse exponent vectors: ((var, exp), ...) sorted by
# variable name, every exponent >= 1; () is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

# Sorted variable names and a field width in bits; see PosPoly.
Layout = tuple[tuple[str, ...], int]

DEFAULT_MAX_MONOMIALS = 100_000
_WIDTH = 8


class PosPoly:
    """Multivariate polynomial whose coefficients are all >= 1.

    The zero polynomial does not exist here: the mapping is never empty.
    Each monomial is packed into one int over a ``Layout``: the total
    degree in the unbounded top field, then one field per name, the first
    name most significant.  So a monomial product is an int sum, graded-lex
    order is int order, and the constant monomial is 0 in every layout.
    Exponents are bounded by the sum of the factors' bounds for a product
    and their maximum for a sum; operands that differ in layout, or whose
    bound sum would fill a field, are first repacked to the union of their
    names at a doubled width, so no carry crosses fields.  Equality,
    hashing and printing ignore the layout.
    """

    __slots__ = ("_coeffs", "_layout", "_bound")

    def __init__(self, coeffs: Mapping[Monomial, int]):
        if not coeffs:
            raise ValueError("a positive polynomial has at least one monomial")
        for mono, coeff in coeffs.items():
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient {coeff} is not a positive integer")
            if any(not isinstance(exp, int) or exp < 1 for _, exp in mono):
                raise ValueError(f"exponent in monomial {mono} is not a positive integer")
            if any(a >= b for (a, _), (b, _) in zip(mono, mono[1:])):
                raise ValueError(f"monomial {mono} is not sorted by variable")
        bound = max((exp for mono in coeffs for _, exp in mono), default=0)
        layout = tuple(sorted({v for mono in coeffs for v, _ in mono})), _fit(_WIDTH, bound)
        packed = {_pack(mono, layout): coeff for mono, coeff in coeffs.items()}
        self._coeffs, self._layout, self._bound = packed, layout, bound

    @classmethod
    def _make(cls, coeffs: dict[int, int], layout: Layout, bound: int) -> "PosPoly":
        """An already packed polynomial, not validated."""
        poly = object.__new__(cls)
        poly._coeffs, poly._layout, poly._bound = coeffs, layout, bound
        return poly

    @classmethod
    def constant(cls, value: int) -> "PosPoly":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "PosPoly":
        return cls({((name, 1),): 1})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosPoly):
            return NotImplemented
        _, mine, theirs = self._aligned(other, max(self._bound, other._bound))
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset(self._unpacked()))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return f"PosPoly({self.render()})"

    def _fields(self) -> tuple[list[tuple[str, int]], int]:
        """Each name of the layout with its field's shift, and the mask of one field."""
        names, width = self._layout
        top = width * len(names)
        return [(name, top - width * i) for i, name in enumerate(names, 1)], (1 << width) - 1

    def _unpacked(self, keys=None) -> Iterator[tuple[Monomial, int]]:
        """Monomial/coefficient pairs of ``keys``, by default all in any order."""
        fields, mask = self._fields()
        for key in self._coeffs if keys is None else keys:
            mono = tuple([(name, e) for name, shift in fields if (e := key >> shift & mask)])
            yield mono, self._coeffs[key]

    def _repacked(self, layout: Layout) -> dict[int, int]:
        """The coefficient map over ``layout``, whose names and width cover this one's."""
        if self._layout == layout or not self._bound:  # constants pack alike everywhere
            return self._coeffs
        return {_pack(mono, layout): coeff for mono, coeff in self._unpacked()}

    def _aligned(self, other: "PosPoly", bound: int) -> tuple[Layout, dict, dict]:
        """A layout whose fields hold ``bound``, and both maps packed over it:
        this one's if both share it, else the union of their names, widened."""
        layout = self._layout
        if layout != other._layout or bound >> layout[1]:
            (names, width), (other_names, other_width) = layout, other._layout
            layout = tuple(sorted({*names, *other_names})), _fit(max(width, other_width), bound)
        return layout, self._repacked(layout), other._repacked(layout)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Monomial/coefficient pairs in graded-lex descending order."""
        return self._unpacked(sorted(self._coeffs, reverse=True))

    @property
    def variables(self) -> tuple[str, ...]:
        """The names some monomial uses; the layout may hold more."""
        (fields, mask), used = self._fields(), reduce(int.__or__, self._coeffs)
        return tuple([name for name, shift in fields if used >> shift & mask])

    @property
    def is_constant(self) -> bool:
        return self._coeffs.keys() == {0}

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._coeffs[0]

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
        a, b = dict(self._unpacked()), dict(other._unpacked())
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
        bound = max(self._bound, other._bound)
        layout, mine, theirs = self._aligned(other, bound)
        merged = dict(mine)
        for key, coeff in theirs.items():
            merged[key] = merged.get(key, 0) + coeff
        return PosPoly._make(merged, layout, bound)

    def mul(self, other: "PosPoly", max_monomials: int = DEFAULT_MAX_MONOMIALS) -> "PosPoly":
        if max_monomials < 1:
            raise ValueError(f"max_monomials must be at least 1, not {max_monomials}")
        # x * 1 = x; a PosPoly is immutable, so the other factor is the product.
        if other._coeffs == _UNIT._coeffs:
            return self
        if self._coeffs == _UNIT._coeffs:
            return other
        bound = self._bound + other._bound
        layout, mine, theirs = self._aligned(other, bound)
        product: dict[int, int] = {}
        get = product.get
        for key_a, coeff_a in mine.items():
            for key_b, coeff_b in theirs.items():
                key = key_a + key_b
                product[key] = get(key, 0) + coeff_a * coeff_b
            # Checked per row: at most max_monomials + len(other) entries.
            if len(product) > max_monomials:
                raise SizeLimit(len(product), max_monomials)
        return PosPoly._make(product, layout, bound)

    __add__ = add
    __mul__ = mul

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        terms = (coeff * prod(env[v] ** e for v, e in mono) for mono, coeff in self._unpacked())
        return sum(terms, Fraction(0))

    def render(self) -> str:
        """Canonical text, graded-lex descending (``2*x^2*y + x + 3``), read off the packed keys."""
        fields, mask = self._fields()
        coeffs, columns, parts = self._coeffs, [(name, shift, {}) for name, shift in fields], []
        for key in sorted(coeffs, reverse=True):
            factors = []
            for name, shift, texts in columns:
                if e := key >> shift & mask:
                    if (text := texts.get(e)) is None:
                        text = texts[e] = f"{name}^{e}" if e > 1 else name
                    factors.append(text)
            if (coeff := coeffs[key]) != 1 or not factors:
                factors.insert(0, str(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __str__ = render


def _fit(width: int, bound: int) -> int:
    """``width``, doubled until a field holds every exponent up to ``bound``."""
    while bound >> width:
        width *= 2
    return width


def _pack(mono: Monomial, layout: Layout) -> int:
    names, width = layout
    exps = dict(mono)
    key = sum(exps.values())
    for name in names:
        key = key << width | exps.get(name, 0)
    return key


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


class PolyFraction(NamedTuple):
    """Numerator/denominator pair of positive polynomials.

    The pair is not reduced to lowest terms: polynomials are expanded as
    they are built, and only whole factors are ever cancelled, by the
    zero-free decision procedure before it expands its cross products.
    """

    numerator: PosPoly
    denominator: PosPoly

    def render(self) -> str:
        return f"({self.numerator.render()}) / ({self.denominator.render()})"


# An unexpanded product of positive polynomials, none of them 1.
_Factors = tuple[PosPoly, ...]


def split_inverse(t: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> PolyFraction:
    """Split a zero-free arithmetical term into an inverse-free fraction.

    The inverse distributes over products and cancels with itself, so a
    single inverse can be floated to the top; both components are then
    polynomial-normalized.  The result denotes the same value as ``t``
    at every positive point, and numerator * denominator^-1 is provably
    equal to ``t``.
    """
    num, den = _factored(t, free_vars(t), max_monomials)
    return PolyFraction(_expand(num, max_monomials), _expand(den, max_monomials))


def _factored(t: Term, names: tuple[str, ...], max_monomials: int) -> tuple[_Factors, _Factors]:
    """Numerator and denominator factors of the zero-free term ``t``, whose
    variables are among the sorted ``names``.

    A product joins its operands' factors and an inverse swaps them, so
    only a sum builds polynomials: it expands each operand to one
    numerator and one denominator and adds the two fractions.  All leaves
    share one layout, over ``names``, so the polynomials repack only to
    widen their fields.
    """
    if max_monomials < 1:
        raise ValueError(f"max_monomials must be at least 1, not {max_monomials}")
    layout = (names, _WIDTH)
    leaves = {v: ((PosPoly._make({_pack(((v, 1),), layout): 1}, layout, 1),), ()) for v in names}

    def visit(node: Term, a=None, b=None) -> tuple[_Factors, _Factors]:
        kind = node.__class__
        if kind is Mul:
            return a[0] + b[0], a[1] + b[1]
        if kind is Inv:
            return a[1], a[0]
        if kind is Add:
            a_num, a_den = _expand(a[0], max_monomials), _expand(a[1], max_monomials)
            b_num, b_den = _expand(b[0], max_monomials), _expand(b[1], max_monomials)
            num = a_num.mul(b_den, max_monomials).add(b_num.mul(a_den, max_monomials))
            if len(num) > max_monomials:
                raise SizeLimit(len(num), max_monomials)
            if not (a[1] or b[1]):
                return (num,), ()
            return (num,), (a_den.mul(b_den, max_monomials),)
        if kind is One:
            return (), ()
        if kind is Var:
            return leaves[node.name]
        raise NotInSignature(f"{kind.__name__} does not occur in the iamd signature")

    return fold(t, visit)


def _expand(factors: _Factors, max_monomials: int) -> PosPoly:
    """The product of ``factors``.  Equal factors are first raised to their
    power, then the two smallest polynomials are multiplied until one is
    left, which keeps the early products small."""
    if len(factors) < 3:
        if len(factors) == 2:
            return factors[0].mul(factors[1], max_monomials)
        return factors[0] if factors else _UNIT
    powers: list[list] = []  # [base, exponent]
    for factor in factors:
        for entry in powers:
            if entry[0] == factor:
                entry[1] += 1
                break
        else:
            powers.append([factor, 1])
    heap = []
    for order, (base, exponent) in enumerate(powers):
        power = base
        for _ in range(exponent - 1):
            power = power.mul(base, max_monomials)
        heap.append((len(power), order, power))
    heapify(heap)
    order = len(heap)
    while len(heap) > 1:
        product = heappop(heap)[2].mul(heappop(heap)[2], max_monomials)
        heappush(heap, (len(product), order, product))
        order += 1
    return heap[0][2]


def _cross_products(t: Term, u: Term, max_monomials: int) -> tuple[PosPoly, PosPoly]:
    """The cross products t1*u2 and u1*t2 of the zero-free sides' fractions
    t1/t2 and u1/u2, each with the factors the two share cancelled.

    Positive polynomials are nonzero and polynomial rings over the
    integers have no zero divisors, so A*C = B*C exactly when A = B:
    cancelling keeps the comparison exact, and only the remainders are
    expanded.
    """
    names = tuple(sorted({*free_vars(t), *free_vars(u)}))
    t_num, t_den = _factored(t, names, max_monomials)
    u_num, u_den = _factored(u, names, max_monomials)
    right = list(u_num + t_den)
    left = []
    for factor in t_num + u_den:
        for i, other in enumerate(right):
            if factor == other:
                del right[i]
                break
        else:
            left.append(factor)
    return _expand(tuple(left), max_monomials), _expand(tuple(right), max_monomials)


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


def zero_elim(t: Term) -> Term:
    """Eliminate the constant 0 from a term over {0, 1, +, *, ^-1}.

    Rewrites bottom-up with 0 + u = u, u + 0 = u, 0 * u = 0, u * 0 = 0
    and 0^-1 = 0, as ``_restrict`` with no variable at 0.  The result is
    0 (``t`` is provably 0) or a term with no 0, provably equal to ``t``.
    """
    if not conforms(t, SignatureId.IAMDZ):
        raise NotInSignature("zero elimination applies to iamdz terms")
    return _restrict(t, ())


def _restrict(t: Term, zeros: Container[str]) -> Term:
    """``zero_elim`` of iamdz ``t``, unchecked, with the variables in ``zeros`` at 0.

    The rules apply at each node as the fold rebuilds it, so substituting
    and eliminating take one traversal (Bryant's Restrict, IEEE TC 1986).
    """

    def visit(node: Term, *children: Term) -> Term:
        if not children:
            return ZERO if node.__class__ is Var and node.name in zeros else node
        first, last = children[0].__class__ is Zero, children[-1].__class__ is Zero
        if node.__class__ is Add and (first or last):
            return children[1] if first else children[0]
        if first or last:  # a product or an inverse of 0
            return ZERO
        return rebuild(node, *children)

    return fold(t, visit)


def closed_normal(t: Term, sig: SignatureId) -> Fraction:
    """Normal form of a closed term over ``sig``: its exact value.

    In the rational specifications (``ratzi``, ``ratiaz``, ...), whose
    initial algebras are the rationals, closed terms are provably equal
    exactly when their values are (Bergstra & Tucker, J. ACM 2007), so the
    zero-totalized value is canonical there.  It is not canonical for the
    bare theory of ``sig``: Z_2 with 0^-1 = 0 satisfies ``imd`` and
    ``iamdz`` but not (1 + 1) * (1 + 1)^-1 = 1 (Bergstra, Hirshfeld &
    Tucker, TCS 2009).
    """
    if not conforms(t, sig):
        raise NotInSignature(f"term does not conform to the {sig.value} signature")
    if not is_closed(t):
        raise NotClosed(f"term has free variables: {', '.join(free_vars(t))}")
    return eval_total(t, {})
