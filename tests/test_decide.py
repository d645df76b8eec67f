"""Tests for the equational decision procedures."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    Add,
    Carrier,
    Counterexample,
    Decision,
    Div,
    Inv,
    MatchedNormals,
    Mul,
    Neg,
    NotInSignature,
    ONE,
    RecursionTrace,
    SignatureId,
    SizeLimit,
    TheoryId,
    Var,
    ZERO,
    decide_closed,
    decide_divisive,
    decide_iamd,
    decide_iamdz_gil,
    eval_total,
    free_vars,
    numeral,
    power,
    split_inverse,
    substitute,
)
from meadows.decide import _value_at
from meadows.terms import Term
from termgen import random_term

X = Var("x")
Y = Var("y")

SUM_OF_SQUARES = Add(Add(ONE, power(X, 2)), power(Y, 2))


def equal_variant(rng: random.Random, t: Term, with_zero: bool = False) -> Term:
    """A term provably equal to t.

    Uses only laws shared by the zero-free and zero-carrying theories
    when with_zero is set; otherwise may multiply by x * x^-1.
    """
    choices = ["mul-ident", "reflection", "restricted"]
    if not with_zero:
        choices.append("inverse-law")
    else:
        choices.append("add-ident")
    if isinstance(t, Add):
        choices.append("comm")
    if isinstance(t, Mul):
        choices.append("comm")
    match rng.choice(choices):
        case "mul-ident":
            return Mul(t, ONE)
        case "reflection":
            return Inv(Inv(t))
        case "restricted":
            # x * (x * x^-1) = x holds with zero-totalized inverse too.
            return Mul(t, Mul(t, Inv(t)))
        case "inverse-law":
            # (t + 1) * (t + 1)^-1 = 1 is an instance of the inverse law.
            return Mul(t, Mul(Add(t, ONE), Inv(Add(t, ONE))))
        case "add-ident":
            return Add(t, ZERO)
        case "comm":
            return type(t)(t.right, t.left)
    raise AssertionError


def positive_env(rng: random.Random, names) -> dict:
    return {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in names}


class TestDecideIamd:
    def test_inverse_law(self):
        d = decide_iamd(Mul(X, Inv(X)), ONE)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert d.evidence.lhs == d.evidence.rhs

    def test_distinct_variables(self):
        d = decide_iamd(X, Y)
        assert not d.verdict
        assert isinstance(d.evidence, Counterexample)
        ce = d.evidence
        assert eval_total(X, ce.assignment, Carrier.POSITIVE) == ce.lhs_value
        assert eval_total(Y, ce.assignment, Carrier.POSITIVE) == ce.rhs_value
        assert ce.lhs_value != ce.rhs_value
        assert all(q > 0 for q in ce.assignment.values())

    def test_inverse_distributes_over_product(self):
        d = decide_iamd(Inv(Mul(X, Y)), Mul(Inv(X), Inv(Y)))
        assert d.verdict

    def test_rejects_foreign_constructors(self):
        from meadows import Neg

        with pytest.raises(NotInSignature):
            decide_iamd(Neg(X), X)
        with pytest.raises(NotInSignature):
            decide_iamd(Add(X, ZERO), X)
        with pytest.raises(NotInSignature):
            decide_iamd(Div(X, X), ONE)

    def test_refutes_before_expanding(self, monkeypatch):
        import meadows.decide

        def split_inverse(*args):
            raise AssertionError("a side was expanded")

        def div_to_inv(*args):
            raise AssertionError("a side was translated")

        monkeypatch.setattr(meadows.decide, "split_inverse", split_inverse)
        monkeypatch.setattr(meadows.decide, "_cross_products", split_inverse)
        monkeypatch.setattr(meadows.decide, "div_to_inv", div_to_inv)
        product = Mul(
            power(reduce(Add, [X, Y, Var("z"), Var("w"), ONE]), 12),
            power(reduce(Add, [Mul(X, Y), Mul(Var("z"), Var("w")), X, ONE]), 8),
        )
        value = Fraction(5**12 * 4**8)
        expected = Counterexample(dict.fromkeys("wxyz", Fraction(1)), value, value + 1)
        for decision in (
            decide_iamd(product, Add(product, ONE)),
            decide_divisive(product, Add(product, ONE), TheoryId.DAMD),
        ):
            assert decision == Decision(False, expected)

    def test_size_limit_propagates(self):
        # The distributed side's sum must be expanded, to 13 monomials.
        big = power(Add(X, ONE), 12)
        distributed = Add(Mul(power(Add(X, ONE), 11), X), power(Add(X, ONE), 11))
        with pytest.raises(SizeLimit):
            decide_iamd(big, distributed, max_monomials=10)
        # Identical factors cancel, so nothing is built and the bound is not hit.
        assert decide_iamd(big, big, max_monomials=10).verdict

    def test_monomial_bound_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            decide_iamd(X, X, max_monomials=0)

    def test_counterexample_binds_cancelled_variables(self):
        # y cancels, and the remainders x^2 + 1 and 2*x first differ at x = 2.
        t = Mul(Add(Mul(X, X), ONE), Y)
        u = Mul(Add(X, X), Y)
        d = decide_iamd(t, u)
        ce = Counterexample({"x": Fraction(2), "y": Fraction(1)}, Fraction(5), Fraction(4))
        assert d == Decision(False, ce)
        assert eval_total(t, ce.assignment, Carrier.POSITIVE) == ce.lhs_value
        assert eval_total(u, ce.assignment, Carrier.POSITIVE) == ce.rhs_value

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_expanded_cross_products(self, seed: int):
        rng = random.Random(seed)
        names = ("x", "y", "z")
        t = random_term(rng, SignatureId.IAMD, max_size=12, variables=names)
        u = random_term(rng, SignatureId.IAMD, max_size=12, variables=names)
        s = random_term(rng, SignatureId.IAMD, max_size=6, variables=names)
        t, u = rng.choice([(t, u), (Mul(Mul(s, t), Inv(s)), t), (Mul(s, t), Mul(u, s))])
        a, b = split_inverse(t), split_inverse(u)
        expanded = a.numerator * b.denominator == b.numerator * a.denominator
        d = decide_iamd(t, u)
        assert d.verdict == expanded
        if d.verdict:
            assert isinstance(d.evidence, MatchedNormals)
            assert d.evidence.lhs == d.evidence.rhs
        else:
            ce = d.evidence
            assert ce.assignment.keys() == {*free_vars(t), *free_vars(u)}
            assert eval_total(t, ce.assignment, Carrier.POSITIVE) == ce.lhs_value
            assert eval_total(u, ce.assignment, Carrier.POSITIVE) == ce.rhs_value
            assert ce.lhs_value != ce.rhs_value

    def test_deterministic(self):
        assert decide_iamd(X, Y) == decide_iamd(X, Y)

    def test_exact_counterexample_when_all_ones_agree(self):
        # Both sides are 2 at x = 1; the cross products x^3 + x and 2*x^2
        # first differ at x = 2.
        d = decide_iamd(Add(Mul(Mul(X, X), X), X), Add(Mul(X, X), Mul(X, X)))
        assert not d.verdict
        assert d.evidence == Counterexample({"x": Fraction(2)}, Fraction(10), Fraction(8))

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_soundness_on_samples(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=10, variables=("x", "y"))
        u = t
        for _ in range(rng.randint(1, 3)):
            u = equal_variant(rng, u)
        d = decide_iamd(t, u)
        assert d.verdict
        names = sorted({*free_vars(t), *free_vars(u)})
        for _ in range(200):
            env = positive_env(rng, names)
            assert eval_total(t, env, Carrier.POSITIVE) == eval_total(u, env, Carrier.POSITIVE)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_refutation_on_samples(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=12, variables=("x", "y"))
        u = random_term(rng, SignatureId.IAMD, max_size=12, variables=("x", "y"))
        d = decide_iamd(t, u)
        if d.verdict:
            assert isinstance(d.evidence, MatchedNormals)
            assert d.evidence.lhs == d.evidence.rhs
        else:
            ce = d.evidence
            assert isinstance(ce, Counterexample)
            assert all(q > 0 for q in ce.assignment.values())
            lhs = eval_total(t, ce.assignment, Carrier.POSITIVE)
            rhs = eval_total(u, ce.assignment, Carrier.POSITIVE)
            assert (lhs, rhs) == (ce.lhs_value, ce.rhs_value)
            assert lhs != rhs

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_laws(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=10, variables=("x", "y"))
        assert decide_iamd(t, t).verdict
        u = random_term(rng, SignatureId.IAMD, max_size=10, variables=("x", "y"))
        assert decide_iamd(t, u).verdict == decide_iamd(u, t).verdict
        # Transitivity along a chain of two true links.
        v = equal_variant(rng, t)
        w = equal_variant(rng, v)
        assert decide_iamd(t, v).verdict
        assert decide_iamd(v, w).verdict
        assert decide_iamd(t, w).verdict

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_congruence(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=8, variables=("x",))
        u = equal_variant(rng, t)
        w = random_term(rng, SignatureId.IAMD, max_size=6, variables=("y",))
        contexts = [
            lambda hole: Add(hole, w),
            lambda hole: Mul(w, hole),
            lambda hole: Inv(hole),
            lambda hole: Add(w, Mul(hole, w)),
        ]
        context = rng.choice(contexts)
        assert decide_iamd(t, u).verdict
        assert decide_iamd(context(t), context(u)).verdict

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_every_term_has_provable_inverse_product(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=10, variables=("x", "y", "z"))
        assert decide_iamd(Mul(t, Inv(t)), ONE).verdict

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_closed_agreement(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMD, max_size=10)
        if rng.random() < 0.5:
            u = equal_variant(rng, t)
        else:
            u = random_term(rng, SignatureId.IAMD, max_size=10)
        assert decide_iamd(t, u).verdict == decide_closed(t, u, SignatureId.IAMD).verdict


@pytest.mark.parametrize(
    "procedure, sig, foreign",
    [
        (decide_iamd, "iamd", Neg(X)),
        (decide_iamd, "iamd", ZERO),
        (decide_iamd, "iamd", Div(X, X)),
        (decide_iamdz_gil, "iamdz", Neg(X)),
        (decide_iamdz_gil, "iamdz", Div(X, X)),
    ],
    ids=["iamd-neg", "iamd-zero", "iamd-div", "iamdz-neg", "iamdz-div"],
)
@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("depth", [0, 50])
def test_rejects_foreign_constructors_on_either_side_at_any_depth(
    procedure, sig, foreign, side, depth
):
    # The sides differ at all-ones, so the check must come before any refutation.
    bad = reduce(lambda t, _: Mul(Add(t, ONE), X), range(depth), foreign)
    pair = (bad, Add(X, ONE)) if side == "lhs" else (Add(X, ONE), bad)
    with pytest.raises(NotInSignature, match=f"both sides must conform to the {sig} signature"):
        procedure(*pair)


class TestValueAtZeroOnePoints:
    """The integer fold that refutes before expanding agrees with ``eval_total``."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_all_ones_over_positives(self, seed: int):
        for sig in (SignatureId.IAMD, SignatureId.DAMD):
            t = random_term(random.Random(seed), sig, 14, ("x", "y", "z"))
            num, den = _value_at(t, (), sig)
            ones = dict.fromkeys(free_vars(t), Fraction(1))
            assert Fraction(num, den) == eval_total(t, ones, Carrier.POSITIVE)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_every_zero_pattern_over_non_negatives(self, seed: int):
        for sig in (SignatureId.IAMDZ, SignatureId.DAMDZ):
            t = random_term(random.Random(seed), sig, 14, ("x", "y", "z"))
            names = free_vars(t)
            for size in range(len(names) + 1):
                for zeros in combinations(names, size):
                    num, den = _value_at(t, zeros, sig)
                    env = {v: Fraction(0) if v in zeros else Fraction(1) for v in names}
                    assert Fraction(num, den) == eval_total(t, env, Carrier.NON_NEGATIVE)


class TestDecideIamdzGil:
    def test_inverse_law_fails_at_zero(self):
        d = decide_iamdz_gil(Mul(X, Inv(X)), ONE)
        assert not d.verdict
        assert isinstance(d.evidence, Counterexample)
        assert d.evidence.assignment == {"x": Fraction(0)}
        assert d.evidence.lhs_value == 0
        assert d.evidence.rhs_value == 1

    def test_sum_of_squares_is_invertible(self):
        d = decide_iamdz_gil(Mul(SUM_OF_SQUARES, Inv(SUM_OF_SQUARES)), ONE)
        assert d.verdict

    def test_zero_inverse_is_zero(self):
        d = decide_iamdz_gil(Inv(ZERO), ZERO)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert d.evidence.lhs == Fraction(0)

    def test_alternative_invertibility(self):
        shared = Mul(X, Add(X, Y))
        d = decide_iamdz_gil(Mul(shared, Inv(shared)), Mul(X, Inv(X)))
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        assert all(step.decision.verdict for step in d.evidence.steps)
        # x = 0, y = 0 reduces to the same 0 = 0 as x = 0 and is not decided again.
        assert [step.description for step in d.evidence.steps] == [
            "all variables nonzero",
            "x = 0",
            "y = 0",
        ]

    def test_one_case_per_zero_set(self, monkeypatch):
        import meadows.decide

        calls, substitutions = [], []
        monkeypatch.setattr(
            meadows.decide, "decide_iamd", lambda *args: calls.append(args) or decide_iamd(*args)
        )
        monkeypatch.setattr(
            meadows.decide,
            "substitute",
            lambda *args: substitutions.append(args) or substitute(*args),
        )
        names = [f"v{i}" for i in range(8)]
        lhs = reduce(Add, [Mul(Var(v), Inv(Var(v))) for v in names])
        rhs = reduce(Add, [Mul(Inv(Var(v)), Var(v)) for v in names])
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        assert len(d.evidence.steps) == 2**8
        assert len(calls) <= 2**8
        # Each zero set is its parent's with one more variable at 0.
        assert len(substitutions) <= 2 * (2**8 - 1)
        assert [step.description for step in d.evidence.steps] == [
            ", ".join(f"{v} = 0" for v in zeros) or "all variables nonzero"
            for size in range(len(names) + 1)
            for zeros in combinations(names, size)
        ]

    def test_searched_zero_sets_are_not_folded_again(self, monkeypatch):
        import meadows.decide

        folds, calls = [], []
        monkeypatch.setattr(
            meadows.decide, "_value_at", lambda *args: folds.append(args) or _value_at(*args)
        )
        monkeypatch.setattr(
            meadows.decide, "decide_iamd", lambda *args: calls.append(args) or decide_iamd(*args)
        )
        names = [f"v{i}" for i in range(9)]
        lhs = reduce(Add, [Mul(Var(v), Inv(Var(v))) for v in names])
        rhs = reduce(Add, [Mul(Inv(Var(v)), Var(v)) for v in names])
        assert decide_iamdz_gil(lhs, rhs).verdict
        # The pre-search compares the first 257 of the 512 zero sets.  Of the
        # rest, all but the full set (both sides 0) go through decide_iamd,
        # which folds both sides at all-ones again.
        assert len(calls) == 512 - 257 - 1
        assert len(folds) == 2 * 257 + 2 * len(calls)

    def test_rejects_foreign_constructors(self):
        from meadows import Neg

        with pytest.raises(NotInSignature):
            decide_iamdz_gil(Neg(X), X)
        with pytest.raises(NotInSignature):
            decide_iamdz_gil(Div(X, X), ONE)

    def test_mixed_zero_case(self):
        # One side derivably 0, the other zero-free: never equal.
        d = decide_iamdz_gil(Mul(ZERO, X), Add(X, ONE))
        assert not d.verdict
        ce = d.evidence
        assert isinstance(ce, Counterexample)
        assert ce.lhs_value != ce.rhs_value

    def test_refutation_that_no_zero_pattern_finds(self):
        # Both sides are 0 at x = 0 and 2 at x = 1.
        t = Add(Mul(Mul(X, X), X), X)
        u = Add(Mul(X, X), Mul(X, X))
        d = decide_iamdz_gil(t, u)
        assert not d.verdict
        ce = d.evidence
        assert isinstance(ce, Counterexample)
        assert ce.assignment == {"x": Fraction(2)}
        lhs = eval_total(t, ce.assignment, Carrier.NON_NEGATIVE)
        rhs = eval_total(u, ce.assignment, Carrier.NON_NEGATIVE)
        assert (lhs, rhs) == (ce.lhs_value, ce.rhs_value)
        assert lhs != rhs

    def test_refutation_where_exactly_one_side_is_zero(self):
        # Only the all-zero set separates the sides; with nine variables it
        # lies past the zero-pattern search, so the case split refutes it.
        total = Var("a")
        for name in "bcdefghi":
            total = Add(total, Var(name))
        d = decide_iamdz_gil(Mul(total, Inv(total)), ONE)
        assert not d.verdict
        ce = d.evidence
        assert isinstance(ce, Counterexample)
        assert ce.assignment == dict.fromkeys("abcdefghi", Fraction(0))
        assert (ce.lhs_value, ce.rhs_value) == (0, 1)

    def test_closed_equation_is_evaluated_once(self, monkeypatch):
        import meadows.decide

        calls = []
        monkeypatch.setattr(
            meadows.decide, "_value_at", lambda *args: calls.append(args) or _value_at(*args)
        )
        d = decide_iamdz_gil(Mul(numeral(3), Inv(numeral(2))), Add(ONE, Inv(numeral(2))))
        assert d.verdict
        assert len(calls) == 2

    def test_deterministic(self):
        shared = Mul(X, Add(X, Y))
        a = decide_iamdz_gil(Mul(shared, Inv(shared)), Mul(X, Inv(X)))
        b = decide_iamdz_gil(Mul(shared, Inv(shared)), Mul(X, Inv(X)))
        assert a == b

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_reflexive_and_symmetric(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=10, variables=("x", "y"))
        assert decide_iamdz_gil(t, t).verdict
        u = random_term(rng, SignatureId.IAMDZ, max_size=10, variables=("x", "y"))
        assert decide_iamdz_gil(t, u).verdict == decide_iamdz_gil(u, t).verdict

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_soundness_on_samples(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=8, variables=("x", "y"))
        u = t
        for _ in range(rng.randint(1, 2)):
            u = equal_variant(rng, u, with_zero=True)
        d = decide_iamdz_gil(t, u)
        assert d.verdict
        names = sorted({*free_vars(t), *free_vars(u)})
        for _ in range(200):
            env = {n: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for n in names}
            assert eval_total(t, env, Carrier.NON_NEGATIVE) == eval_total(
                u, env, Carrier.NON_NEGATIVE
            )

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_refutation_on_samples(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=10, variables=("x", "y"))
        u = random_term(rng, SignatureId.IAMDZ, max_size=10, variables=("x", "y"))
        d = decide_iamdz_gil(t, u)
        if not d.verdict:
            ce = d.evidence
            assert isinstance(ce, Counterexample)
            assert all(q >= 0 for q in ce.assignment.values())
            lhs = eval_total(t, ce.assignment, Carrier.NON_NEGATIVE)
            rhs = eval_total(u, ce.assignment, Carrier.NON_NEGATIVE)
            assert (lhs, rhs) == (ce.lhs_value, ce.rhs_value)
            assert lhs != rhs

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_closed_agreement(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=10)
        if rng.random() < 0.5:
            u = equal_variant(rng, t, with_zero=True)
        else:
            u = random_term(rng, SignatureId.IAMDZ, max_size=10)
        assert (
            decide_iamdz_gil(t, u).verdict == decide_closed(t, u, SignatureId.IAMDZ).verdict
        )


class TestDecideClosed:
    def test_equal_fractions(self):
        t = Mul(numeral(2), Inv(numeral(3)))
        u = Mul(numeral(4), Inv(numeral(6)))
        d = decide_closed(t, u, SignatureId.IAMD)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert d.evidence.lhs == Fraction(2, 3)

    def test_zero_inverse_differs_from_one(self):
        d = decide_closed(Inv(ZERO), ONE, SignatureId.IAMDZ)
        assert not d.verdict
        assert d.evidence == MatchedNormals(Fraction(0), Fraction(1, 1))

    def test_one_equals_one(self):
        assert decide_closed(ONE, ONE, SignatureId.IAMD).verdict

    def test_rejects_open_terms(self):
        from meadows import NotClosed

        with pytest.raises(NotClosed):
            decide_closed(X, ONE, SignatureId.IAMD)

    def test_rejects_wrong_signature(self):
        with pytest.raises(NotInSignature):
            decide_closed(Inv(ZERO), ONE, SignatureId.IAMD)

    def test_full_meadow_closed_terms(self):
        from meadows import Neg

        t = Neg(Mul(numeral(2), Inv(numeral(4))))
        u = Neg(Inv(numeral(2)))
        assert decide_closed(t, u, SignatureId.IMD).verdict


class TestDecideDivisive:
    def test_reflexive_division(self):
        assert decide_divisive(Div(X, X), ONE, TheoryId.DAMD).verdict

    def test_double_division(self):
        d = decide_divisive(Div(ONE, Div(ONE, X)), X, TheoryId.RATDAZ_GIL)
        assert d.verdict

    def test_asymmetry(self):
        d = decide_divisive(Div(X, Y), Div(Y, X), TheoryId.DAMD)
        assert not d.verdict
        ce = d.evidence
        assert isinstance(ce, Counterexample)
        lhs = eval_total(Div(X, Y), ce.assignment, Carrier.POSITIVE)
        rhs = eval_total(Div(Y, X), ce.assignment, Carrier.POSITIVE)
        assert lhs != rhs

    def test_division_by_zero_blocks_cancellation(self):
        d = decide_divisive(Div(X, X), ONE, TheoryId.RATDAZ_GIL)
        assert not d.verdict
        assert d.evidence.assignment == {"x": Fraction(0)}

    def test_rejects_inversive_terms(self):
        with pytest.raises(NotInSignature):
            decide_divisive(Inv(X), ONE, TheoryId.DAMD)
        deep = Inv(X)
        for _ in range(50):
            deep = Div(ONE, Add(deep, X))
        for t, u in ((deep, X), (X, deep)):
            with pytest.raises(NotInSignature):
                decide_divisive(t, u, TheoryId.DAMD)

    def test_zero_free_sides_are_folded_once(self, monkeypatch):
        import meadows.decide

        folds = []
        monkeypatch.setattr(
            meadows.decide, "_value_at", lambda *args: folds.append(args) or _value_at(*args)
        )
        assert decide_divisive(Div(Add(X, Y), Add(Y, X)), ONE, TheoryId.DAMD).verdict
        assert len(folds) == 2

    def test_rejects_undecidable_theory(self):
        with pytest.raises(ValueError):
            decide_divisive(Div(X, X), ONE, TheoryId.DAMDZ)

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_translated_query(self, seed: int):
        from meadows import div_to_inv

        rng = random.Random(seed)
        t = random_term(rng, SignatureId.DAMD, max_size=10, variables=("x", "y"))
        u = random_term(rng, SignatureId.DAMD, max_size=10, variables=("x", "y"))
        direct = decide_divisive(t, u, TheoryId.DAMD)
        translated = decide_iamd(div_to_inv(t), div_to_inv(u))
        assert direct.verdict == translated.verdict


class TestEvidenceRendering:
    def test_matched_normals(self):
        d = decide_iamd(Mul(X, Inv(X)), ONE)
        assert "vs" in d.evidence.render()

    def test_counterexample(self):
        d = decide_iamd(X, Y)
        text = d.evidence.render()
        assert "x =" in text and "!=" in text

    def test_recursion_trace(self):
        shared = Mul(X, Add(X, Y))
        d = decide_iamdz_gil(Mul(shared, Inv(shared)), Mul(X, Inv(X)))
        assert "true" in d.evidence.render()
