"""Tests for polynomial and closed-rational normal forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    Add,
    Carrier,
    ContainsInverse,
    Div,
    Inv,
    Mul,
    Neg,
    NotClosed,
    NotInSignature,
    ONE,
    One,
    PolyFraction,
    PosPoly,
    SignatureId,
    SizeLimit,
    Var,
    ZERO,
    Zero,
    closed_normal,
    conforms,
    eval_total,
    numeral,
    poly_normal,
    split_inverse,
    substitute,
    zero_elim,
)
from meadows.normalize import DEFAULT_MAX_MONOMIALS, _expand, _factored
from termgen import random_env, random_term

X = Var("x")
Y = Var("y")


def eval_pair(num: PosPoly, den: PosPoly, env: dict) -> Fraction:
    return num.evaluate(env) / den.evaluate(env)


def positive_env(rng: random.Random, names) -> dict:
    return {name: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for name in names}


class TestPosPoly:
    def test_constant(self):
        p = PosPoly.constant(3)
        assert p.is_constant
        assert p.constant_value() == 3
        assert (PosPoly.constant(1) == 1) is False

    def test_variable(self):
        p = PosPoly.variable("x")
        assert p.variables == ("x",)
        assert not p.is_constant
        assert repr(p) == "PosPoly(x)"
        with pytest.raises(ValueError):
            p.constant_value()

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            PosPoly({(): 0})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PosPoly({})

    @pytest.mark.parametrize(
        "coeffs",
        [
            {(): 1.5, (("x", 1),): 2},
            {(): Fraction(3, 2)},
            {(("x", 1.5),): 1},
            {(("x", 0),): 1},
            {(("x", Fraction(2)),): 1},
        ],
    )
    def test_rejects_non_integer_or_non_positive_data(self, coeffs):
        with pytest.raises(ValueError, match="not a positive integer"):
            PosPoly(coeffs)

    def test_add_merges_coefficients(self):
        p = PosPoly.variable("x") + PosPoly.variable("x")
        assert p == PosPoly({(("x", 1),): 2})

    def test_mul_convolves(self):
        # (x + 1)(x + 1) = x^2 + 2x + 1
        p = PosPoly.variable("x") + PosPoly.constant(1)
        sq = p * p
        assert sq == PosPoly({(("x", 2),): 1, (("x", 1),): 2, (): 1})

    def test_render_graded_lex(self):
        p = PosPoly(
            {
                (("x", 2), ("y", 1)): 2,
                (("x", 1),): 1,
                (): 3,
            }
        )
        assert p.render() == "2*x^2*y + x + 3"

    def test_size_limit(self):
        # (x1 + x2 + ... + x9)^k grows multiplicatively in monomial count.
        p = PosPoly.variable("x1")
        for i in range(2, 10):
            p = p + PosPoly.variable(f"x{i}")
        with pytest.raises(SizeLimit):
            q = p
            for _ in range(8):
                q = q.mul(q, max_monomials=1000)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_constant_arithmetic(self, a: int, b: int):
        pa, pb = PosPoly.constant(a), PosPoly.constant(b)
        assert (pa + pb).constant_value() == a + b
        assert (pa * pb).constant_value() == a * b


@st.composite
def small_polys(draw):
    names = ("x", "y")
    n_monomials = draw(st.integers(1, 4))
    coeffs = {}
    for _ in range(n_monomials):
        mono = tuple(
            (name, e)
            for name, e in zip(names, draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
            if e > 0
        )
        coeffs[mono] = coeffs.get(mono, 0) + draw(st.integers(1, 9))
    return PosPoly(coeffs)


class TestPosPolyLaws:
    @given(small_polys(), small_polys(), small_polys())
    def test_add_assoc_comm(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(small_polys(), small_polys(), small_polys())
    def test_mul_assoc_comm_distrib(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(small_polys(), st.integers(0, 8))
    def test_evaluation_is_a_homomorphism(self, p, seed):
        rng = random.Random(seed)
        env = positive_env(rng, ("x", "y"))
        q = PosPoly({(("x", 1), ("y", 2)): 3, (): 1})
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)

    @given(small_polys(), small_polys())
    def test_separating_point(self, p, q):
        with pytest.raises(ValueError):
            p.separating_point(p)
        if p == q:
            return
        point = p.separating_point(q)
        assert set(point) == {*p.variables, *q.variables}
        assert all(isinstance(v, int) and v >= 1 for v in point.values())
        env = {name: Fraction(v) for name, v in point.items()}
        assert p.evaluate(env) != q.evaluate(env)


NAMES = ("x", "y", "z")


def reference_product(p: dict, q: dict) -> dict:
    """The product of two Monomial-keyed maps, exponent by exponent."""
    out = {}
    for mono_a, coeff_a in p.items():
        for mono_b, coeff_b in q.items():
            exps = dict(mono_a)
            for var, exp in mono_b:
                exps[var] = exps.get(var, 0) + exp
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + coeff_a * coeff_b
    return out


def graded_lex(mono):
    vector = tuple(dict(mono).get(name, 0) for name in NAMES)
    return sum(vector), vector


@st.composite
def wide_maps(draw):
    """Monomial maps over some of x, y, z with exponents up to 300, so that
    products outgrow 8-bit fields and operands differ in their variables."""
    names = sorted(draw(st.sets(st.sampled_from(NAMES))))
    coeffs = {}
    for _ in range(draw(st.integers(1, 5))):
        mono = tuple((name, e) for name in names if (e := draw(st.integers(0, 300))))
        coeffs[mono] = coeffs.get(mono, 0) + draw(st.integers(1, 9))
    return coeffs


class TestPackedKernel:
    @pytest.mark.parametrize(
        "left, want, text",
        [
            ({"x": 255}, {"x": 256, "y": 1}, "x^256*y"),
            ({"x": 255, "y": 1}, {"x": 256, "y": 2}, "x^256*y^2"),
            ({"x": 1, "y": 255}, {"x": 2, "y": 256}, "x^2*y^256"),
        ],
    )
    def test_no_carry_into_the_next_field(self, left, want, text):
        # An exponent of 256 overflows an 8-bit field; a silent carry would
        # move it into the neighbouring variable or the degree.
        p = PosPoly({tuple(left.items()): 1}).mul(PosPoly({(("x", 1), ("y", 1)): 1}))
        assert list(p.items()) == [(tuple(want.items()), 1)]
        assert p == PosPoly({tuple(want.items()): 1})
        assert p.render() == text

    def test_equal_across_layouts(self):
        wide = PosPoly({(("x", 200),): 1}) * PosPoly({(("y", 100),): 1})
        narrow = PosPoly({(("x", 200), ("y", 100)): 1})
        split = split_inverse(Mul(Mul(X, Y), Inv(Var("z")))).numerator
        built = PosPoly({(("x", 1), ("y", 1)): 1})
        # The pairs really differ in field width and in variable names.
        assert wide._layout != narrow._layout and split._layout != built._layout
        assert wide == narrow and hash(wide) == hash(narrow)
        assert split == built and hash(split) == hash(built)
        assert split.render() == built.render() == "x*y"
        assert split != PosPoly({(("x", 1), ("z", 1)): 1})

    def test_unit_denominator_has_no_variables(self):
        den = split_inverse(Add(X, Y)).denominator
        assert den.variables == ()
        assert den.is_constant and den.constant_value() == 1
        assert den == PosPoly.constant(1)

    def test_rejects_unsorted_or_repeated_variables(self):
        with pytest.raises(ValueError):
            PosPoly({(("y", 1), ("x", 1)): 1})
        with pytest.raises(ValueError):
            PosPoly({(("x", 1), ("x", 2)): 1})

    @pytest.mark.parametrize("bound", [0, -3])
    def test_monomial_bound_below_one_is_rejected(self, bound):
        with pytest.raises(ValueError):
            split_inverse(X, max_monomials=bound)
        with pytest.raises(ValueError):
            poly_normal(X, max_monomials=bound)
        with pytest.raises(ValueError):
            PosPoly.variable("x").mul(PosPoly.constant(1), max_monomials=bound)

    def test_size_limit_bounds_the_partial_product(self):
        p = PosPoly({((f"a{i:02}", 1),): 1 for i in range(30)})
        q = PosPoly({((f"b{i:02}", 1),): 1 for i in range(30)})
        with pytest.raises(SizeLimit) as info:
            p.mul(q, max_monomials=50)
        assert 50 < info.value.count <= 50 + len(q)

    @given(wide_maps(), wide_maps(), wide_maps())
    @settings(max_examples=150)
    def test_agrees_with_reference_product(self, p, q, r):
        pq, pqr = reference_product(p, q), reference_product(reference_product(p, q), r)
        summed = {**p, **{mono: p.get(mono, 0) + coeff for mono, coeff in q.items()}}
        got = PosPoly(p) * PosPoly(q)
        assert dict(got.items()) == pq
        assert dict((PosPoly(p) + PosPoly(q)).items()) == summed
        assert dict((got * PosPoly(r)).items()) == pqr
        assert got * PosPoly(r) == PosPoly(pqr)
        assert hash(got * PosPoly(r)) == hash(PosPoly(pqr))
        assert list(got.items()) == sorted(pq.items(), key=lambda kv: graded_lex(kv[0]), reverse=True)


def reference_render(p: PosPoly) -> str:
    """The text of ``p`` from its unpacked ``items()``, monomial by monomial."""
    parts = []
    for mono, coeff in p.items():
        factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
        parts.append("*".join(factors if coeff == 1 and factors else [str(coeff), *factors]))
    return " + ".join(parts)


# Exponents small, past an 8-bit field and past a 16-bit field.
EXPONENTS = st.one_of(st.integers(1, 4), st.integers(250, 300), st.integers(65_530, 65_540))
RENDER_NAMES = ("a", "b2", "x", "y", "zz")


@st.composite
def built_polys(draw):
    """Maps over some names, with 8- to 32-bit fields, and constants."""
    if draw(st.booleans()):
        return PosPoly.constant(draw(st.integers(1, 10**6)))
    names = sorted(draw(st.sets(st.sampled_from(RENDER_NAMES))))
    coeffs = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = tuple((name, draw(EXPONENTS)) for name in names if draw(st.booleans()))
        coeffs[mono] = coeffs.get(mono, 0) + draw(st.sampled_from([1, 1, 2, 7, 10**12]))
    return PosPoly(coeffs)


@st.composite
def factored_polys(draw):
    """A part of ``_factored`` over more names than the term has, expanded:
    its layout holds names no monomial uses."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    used = sorted(draw(st.sets(st.sampled_from(RENDER_NAMES), max_size=3)))
    names = tuple(sorted({*used, *draw(st.sets(st.sampled_from(RENDER_NAMES), min_size=1))}))
    term = random_term(rng, SignatureId.IAMD, 12, used)
    num, den = _factored(term, names, DEFAULT_MAX_MONOMIALS)
    return _expand(draw(st.sampled_from([num, den])), DEFAULT_MAX_MONOMIALS)


# Sums and products of two polynomials repack them to the union layout.
RENDERED_POLYS = st.one_of(
    built_polys(),
    factored_polys(),
    st.tuples(built_polys(), built_polys()).map(lambda pq: pq[0].add(pq[1])),
    st.tuples(built_polys(), factored_polys()).map(lambda pq: pq[0].mul(pq[1])),
)


class TestRenderFromPackedKeys:
    @given(RENDERED_POLYS)
    @settings(max_examples=300, deadline=None)
    def test_render_and_variables_agree_with_items(self, p):
        assert p.render() == str(p) == reference_render(p)
        assert p.variables == tuple(sorted({v for mono, _ in p.items() for v, _ in mono}))

    def test_layout_with_unused_names(self):
        num, den = split_inverse(Mul(Mul(X, X), Inv(Add(Var("z"), ONE))))
        assert num._layout[0] == den._layout[0] == ("x", "z")
        assert (num.render(), num.variables) == ("x^2", ("x",))
        assert (den.render(), den.variables) == ("z + 1", ("z",))

    def test_constants_and_wide_fields(self):
        assert PosPoly.constant(12).render() == "12"
        assert PosPoly.constant(12).variables == ()
        p = PosPoly({(("x", 300), ("y", 1)): 3, (("y", 70_000),): 1, (): 5})
        assert p._layout[1] == 32
        assert p.render() == "y^70000 + 3*x^300*y + 5"


class TestPolyNormal:
    def test_binomial_square(self):
        t = Mul(Add(X, ONE), Add(X, ONE))
        assert poly_normal(t) == PosPoly({(("x", 2),): 1, (("x", 1),): 2, (): 1})

    def test_closed_product(self):
        t = Mul(numeral(2), numeral(3))
        p = poly_normal(t)
        assert p.is_constant
        assert p.constant_value() == 6

    def test_sum_of_variables(self):
        assert poly_normal(Add(X, Y)) == PosPoly({(("x", 1),): 1, (("y", 1),): 1})

    def test_rejects_inverse(self):
        with pytest.raises(ContainsInverse):
            poly_normal(Inv(X))

    def test_rejects_zero(self):
        with pytest.raises(NotInSignature):
            poly_normal(Add(X, ZERO))

    def test_rejects_neg(self):
        with pytest.raises(NotInSignature):
            poly_normal(Neg(X))

    def test_sum_respects_monomial_bound(self):
        with pytest.raises(SizeLimit):
            poly_normal(Add(X, Y), max_monomials=1)

    def test_congruence_with_add_and_mul(self):
        # Normal form of a compound is the poly operation on component normals.
        t1 = Mul(Add(X, ONE), Y)
        t2 = Add(Mul(X, X), numeral(3))
        assert poly_normal(Add(t1, t2)) == poly_normal(t1) + poly_normal(t2)
        assert poly_normal(Mul(t1, t2)) == poly_normal(t1) * poly_normal(t2)

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_numeral_addition_law(self, n: int, m: int):
        assert poly_normal(Add(numeral(n), numeral(m))) == poly_normal(numeral(n + m))

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_numeral_multiplication_law(self, n: int, m: int):
        assert poly_normal(Mul(numeral(n), numeral(m))) == poly_normal(numeral(n * m))


class TestSplitInverse:
    def test_plain_variable(self):
        num, den = split_inverse(X)
        assert num == PosPoly.variable("x")
        assert den == PosPoly.constant(1)

    def test_inverse_swaps(self):
        num, den = split_inverse(Inv(X))
        assert num == PosPoly.constant(1)
        assert den == PosPoly.variable("x")

    def test_double_inverse(self):
        num, den = split_inverse(Inv(Inv(X)))
        assert num == PosPoly.variable("x")
        assert den == PosPoly.constant(1)

    def test_sum_with_inverse(self):
        # x + y^-1 = (x*y + 1) / y, checked against evaluation at random points.
        t = Add(X, Inv(Y))
        num, den = split_inverse(t)
        assert num == PosPoly({(("x", 1), ("y", 1)): 1, (): 1})
        assert den == PosPoly.variable("y")
        rng = random.Random(7)
        for _ in range(20):
            env = positive_env(rng, ("x", "y"))
            assert eval_pair(num, den, env) == eval_total(t, env, Carrier.POSITIVE)

    def test_rejects_non_iamd(self):
        with pytest.raises(NotInSignature):
            split_inverse(Neg(X))
        with pytest.raises(NotInSignature):
            split_inverse(Add(X, ZERO))
        with pytest.raises(NotInSignature):
            split_inverse(Div(X, Y))

    def test_sum_respects_monomial_bound(self):
        with pytest.raises(SizeLimit):
            split_inverse(Add(X, Y), max_monomials=1)

    def test_double_inverse_law(self):
        rng = random.Random(3)
        for seed in range(30):
            t = random_term(random.Random(seed), SignatureId.IAMD, max_size=12)
            assert split_inverse(Inv(Inv(t))) == split_inverse(t)

    def test_product_inverse_law(self):
        for seed in range(30):
            rng = random.Random(seed)
            s = random_term(rng, SignatureId.IAMD, max_size=8)
            t = random_term(rng, SignatureId.IAMD, max_size=8)
            assert split_inverse(Inv(Mul(s, t))) == split_inverse(Mul(Inv(s), Inv(t)))

    @given(st.integers(0, 300))
    @settings(max_examples=60)
    def test_agrees_with_evaluation(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=14, variables=("x", "y"))
        num, den = split_inverse(t)
        for _ in range(5):
            env = positive_env(rng, ("x", "y"))
            assert eval_pair(num, den, env) == eval_total(t, env, Carrier.POSITIVE)


    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_agrees_with_evaluation_over_three_variables(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=30, variables=NAMES)
        num, den = split_inverse(t)
        for _ in range(3):
            env = positive_env(rng, NAMES)
            assert eval_pair(num, den, env) == eval_total(t, env, Carrier.POSITIVE)


class TestClosedNormalIamd:
    def test_two_over_four(self):
        got = closed_normal(Mul(numeral(2), Inv(numeral(4))), SignatureId.IAMD)
        assert got == Fraction(1, 2)

    def test_one(self):
        assert closed_normal(ONE, SignatureId.IAMD) == Fraction(1, 1)

    def test_half_plus_third(self):
        t = Add(Inv(numeral(2)), Inv(numeral(3)))
        assert closed_normal(t, SignatureId.IAMD) == Fraction(5, 6)
        # Independent route: exact evaluation.
        assert eval_total(t, {}, Carrier.POSITIVE) == Fraction(5, 6)

    def test_rejects_open_term(self):
        with pytest.raises(NotClosed):
            closed_normal(Add(X, ONE), SignatureId.IAMD)

    def test_rejects_zero(self):
        with pytest.raises(NotInSignature):
            closed_normal(ZERO, SignatureId.IAMD)

    @given(st.integers(0, 500))
    @settings(max_examples=80)
    def test_agrees_with_evaluation(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=16)
        got = closed_normal(t, SignatureId.IAMD)
        want = eval_total(t, {}, Carrier.POSITIVE)
        assert got == want
        assert want > 0
        from math import gcd

        assert gcd(got.numerator, got.denominator) == 1


class TestZeroElim:
    def test_mul_by_zero(self):
        assert zero_elim(Mul(X, ZERO)) == ZERO

    def test_additive_zero_product(self):
        t = Add(X, Mul(ZERO, Y))
        got = zero_elim(t)
        assert got == X
        rng = random.Random(11)
        for _ in range(20):
            env = {
                "x": Fraction(rng.randint(0, 9), rng.randint(1, 9)),
                "y": Fraction(rng.randint(0, 9), rng.randint(1, 9)),
            }
            assert eval_total(got, env, Carrier.NON_NEGATIVE) == eval_total(
                t, env, Carrier.NON_NEGATIVE
            )

    def test_variable_unchanged(self):
        assert zero_elim(X) == X

    def test_inverse_of_zero(self):
        assert zero_elim(Inv(ZERO)) == ZERO
        assert zero_elim(Inv(Add(ZERO, ZERO))) == ZERO

    @given(st.integers(0, 500))
    @settings(max_examples=80)
    def test_result_is_zero_free_iamd(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=16, variables=("x", "y"))
        got = zero_elim(t)
        if got != ZERO:
            assert conforms(got, SignatureId.IAMD)

    @given(st.integers(0, 10**6), st.permutations("wxyz"), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_commutes_with_staged_zero_sets(self, seed: int, order: list[str], size: int):
        # Setting variables to 0 one at a time, eliminating after each, as
        # the GIL case split does, equals setting them all and eliminating once.
        t = random_term(random.Random(seed), SignatureId.IAMDZ, 16, "wxyz")
        staged, full = zero_elim(t), t
        for v in order[:size]:
            staged = zero_elim(substitute(staged, v, ZERO))
            full = substitute(full, v, ZERO)
        assert staged == zero_elim(full)

    @given(st.integers(0, 500))
    @settings(max_examples=80)
    def test_preserves_value(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=16, variables=("x", "y"))
        got = zero_elim(t)
        for _ in range(5):
            env = random_env(rng, ("x", "y"), Carrier.NON_NEGATIVE)
            assert eval_total(got, env) == eval_total(t, env)


class TestClosedNormalIamdz:
    def test_inverse_of_zero(self):
        assert closed_normal(Inv(ZERO), SignatureId.IAMDZ) == Fraction(0)

    def test_product_with_zero(self):
        assert closed_normal(Mul(ZERO, numeral(7)), SignatureId.IAMDZ) == Fraction(0)

    def test_zero_plus_third(self):
        t = Add(ZERO, Mul(numeral(3), Inv(numeral(9))))
        assert closed_normal(t, SignatureId.IAMDZ) == Fraction(1, 3)
        assert eval_total(t, {}) == Fraction(1, 3)

    def test_rejects_open_term(self):
        with pytest.raises(NotClosed):
            closed_normal(Add(X, ZERO), SignatureId.IAMDZ)

    @given(st.integers(0, 500))
    @settings(max_examples=80)
    def test_agrees_with_evaluation(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=16)
        got = closed_normal(t, SignatureId.IAMDZ)
        want = eval_total(t, {}, Carrier.NON_NEGATIVE)
        assert got == want
        assert want >= 0


class TestClosedNormalFull:
    def test_negated_half(self):
        t = Neg(Mul(numeral(2), Inv(numeral(4))))
        assert closed_normal(t, SignatureId.IMD) == Fraction(-1, 2)

    def test_inverse_of_zero(self):
        assert closed_normal(Inv(ZERO), SignatureId.IMD) == Fraction(0)

    def test_division_by_vanishing_sum(self):
        t = Div(ONE, Add(ONE, Neg(ONE)))
        assert closed_normal(t, SignatureId.DMD) == Fraction(0)

    def test_rejects_mixed_signature(self):
        with pytest.raises(NotInSignature):
            closed_normal(Div(Inv(ONE), ONE), SignatureId.DMD)

    @given(st.integers(0, 500))
    @settings(max_examples=80)
    def test_agrees_with_evaluation(self, seed: int):
        rng = random.Random(seed)
        sig = rng.choice([SignatureId.IMD, SignatureId.DMD])
        t = random_term(rng, sig, max_size=16)
        assert closed_normal(t, sig) == eval_total(t, {})


class TestClosedNormal:
    @given(st.integers(0, 10_000), st.sampled_from(list(SignatureId)))
    @settings(max_examples=200)
    def test_every_signature(self, seed: int, sig: SignatureId):
        rng = random.Random(seed)
        t = random_term(rng, sig, max_size=16)
        carrier = (
            Carrier.POSITIVE if Zero not in sig.constructors
            else Carrier.NON_NEGATIVE if Neg not in sig.constructors
            else Carrier.ALL
        )
        normal = closed_normal(t, sig)
        assert normal == eval_total(t, {}, carrier)
        assert carrier.contains(normal)
        for foreign in (ZERO, Neg(ONE), Inv(ONE), Div(ONE, ONE)):
            if not conforms(foreign, sig):
                with pytest.raises(NotInSignature):
                    closed_normal(Mul(t, foreign), sig)
        with pytest.raises(NotClosed):
            closed_normal(Add(t, X), sig)


class TestPolyFraction:
    def test_render(self):
        pf = PolyFraction(PosPoly.variable("x"), PosPoly.constant(2))
        assert pf.render() == "(x) / (2)"
