"""Tests for the equational decision procedures."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings
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
    div_to_inv,
    eval_total,
    free_vars,
    inv_to_div,
    numeral,
    parse,
    power,
    split_inverse,
    substitute,
    zero_elim,
)
from meadows.evaluate import _evaluator
from meadows.terms import Term
from termgen import derived_pairs, random_term, reference_value

X = Var("x")
Y = Var("y")

SUM_OF_SQUARES = Add(Add(ONE, power(X, 2)), power(Y, 2))


def count_points(monkeypatch, *modules) -> list:
    """The points evaluated through ``_evaluator`` in ``modules``, one entry each,
    as the functions it returns are called."""
    points: list = []

    def counted(*args):
        evaluate = _evaluator(*args)
        return lambda value: points.append(value) or evaluate(value)

    for module in modules:
        monkeypatch.setattr(module, "_evaluator", counted)
    return points


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
        (lambda t, u: decide_divisive(t, u, TheoryId.RATDAZ_GIL), "damdz", Neg(X)),
    ],
    ids=["iamd-neg", "iamd-zero", "iamd-div", "iamdz-neg", "iamdz-div", "damdz-neg"],
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


class TestZeroOneRefutations:
    """Refutations at 0/1 points agree with the reference evaluator."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_all_ones_over_positives(self, seed: int):
        rng = random.Random(seed)
        for sig in (SignatureId.IAMD, SignatureId.DAMD):
            t, u = (random_term(rng, sig, 14, ("x", "y", "z")) for _ in range(2))
            if sig is SignatureId.IAMD:
                d = decide_iamd(t, u)
            else:
                d = decide_divisive(t, u, TheoryId.DAMD)
            ones = dict.fromkeys({*free_vars(t), *free_vars(u)}, Fraction(1))
            lhs, rhs = reference_value(t, ones), reference_value(u, ones)
            if lhs != rhs:
                assert d == Decision(False, Counterexample(ones, lhs, rhs))
            elif not d.verdict:
                assert any(v != 1 for v in d.evidence.assignment.values())

    # At seeds 234 (iamdz) and 1459 (damdz) the first separating point has
    # two zeros, and an earlier case of the split refutes elsewhere.
    @given(st.integers(0, 10**6))
    @example(234)
    @example(1459)
    @settings(max_examples=100, deadline=None)
    def test_first_separating_zero_pattern(self, seed: int):
        rng = random.Random(seed)
        for sig in (SignatureId.IAMDZ, SignatureId.DAMDZ):
            t, u = (random_term(rng, sig, 14, ("x", "y", "z")) for _ in range(2))
            if sig is SignatureId.IAMDZ:
                d, s, s2 = decide_iamdz_gil(t, u), t, u
            else:
                d = decide_divisive(t, u, TheoryId.RATDAZ_GIL)
                s, s2 = div_to_inv(t), div_to_inv(u)
            names = {*free_vars(t), *free_vars(u)}
            verdict, env = exhaustive_gil(s, s2, len(names) + 1)
            assert (d.verdict, None if d.verdict else d.evidence.assignment) == (verdict, env)
            separated = first_separating_zero_pattern(t, u)
            if separated and list(separated[0].values()).count(0) <= 1:
                assert d == Decision(False, Counterexample(*separated))
            elif not separated and not d.verdict:
                assert any(v > 1 for v in d.evidence.assignment.values())


def first_separating_zero_pattern(t: Term, u: Term):
    """The first 0/1 point, fewest zeros first, where the reference values of
    ``t`` and ``u`` differ, with both values; None if there is none."""
    names = sorted({*free_vars(t), *free_vars(u)})
    for size in range(len(names) + 1):
        for zeros in combinations(names, size):
            env = {v: Fraction(0) if v in zeros else Fraction(1) for v in names}
            lhs, rhs = reference_value(t, env), reference_value(u, env)
            if lhs != rhs:
                return env, lhs, rhs
    return None


def squares_times_inverse_squares(names: list[str]) -> Term:
    """The sum of v^2 * (v^-1)^2 over ``names``: equal to the sum of v * v^-1
    at every zero set, but not with each inverse an opaque atom, so the case
    split decides it, and needs every zero set to."""
    return reduce(Add, [Mul(power(Var(v), 2), power(Inv(Var(v)), 2)) for v in names])


def split_order(names: list[str]) -> list[str]:
    """The case names of every zero set of sorted ``names``, in the split's
    order: by size, each size in lexicographic order."""
    return [
        ", ".join(f"{v} = 0" for v in zeros) or "all variables nonzero"
        for size in range(len(names) + 1)
        for zeros in combinations(names, size)
    ]


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
        # Both inverted arguments vanish exactly when x does, so y = 0 is no
        # case, and x = 0, y = 0 lies past x = 0, where both sides are 0.
        cases = [step.description for step in d.evidence.steps]
        assert cases == ["all variables nonzero", "x = 0"]
        assert "y = 0" not in cases

    def test_one_case_per_zero_set(self, monkeypatch):
        import meadows.decide

        calls, restrictions = [], []
        restrict = meadows.decide._restrict
        monkeypatch.setattr(
            meadows.decide, "decide_iamd", lambda *args: calls.append(args) or decide_iamd(*args)
        )
        monkeypatch.setattr(
            meadows.decide,
            "_restrict",
            lambda *args: restrictions.append(args) or restrict(*args),
        )
        names = [f"v{i}" for i in range(8)]
        lhs = reduce(Add, [Mul(Var(v), Inv(Var(v))) for v in names])
        rhs = squares_times_inverse_squares(names)
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        assert len(d.evidence.steps) == 2**8
        assert len(calls) <= 2**8
        # Each zero set is restricted from its parent's pair, once per side.
        assert 0 < len(restrictions) <= 2 * (2**8 - 1)
        assert [step.description for step in d.evidence.steps] == split_order(names)

    def test_case_implied_by_its_parent_is_skipped(self):
        # At w = 0 and at x = 0 the pair keeps only (u + 1) * (u + 1)^-1 for
        # the other variable u, which vanishes nowhere, so w = 0, x = 0 is
        # no case of its own.
        w = Var("w")
        s = Add(Add(w, X), ONE)
        lhs = Add(Mul(Mul(w, Inv(w)), Mul(X, Inv(X))), Mul(s, Inv(s)))
        rhs = Add(
            Mul(Mul(power(w, 2), power(Inv(w), 2)), Mul(power(X, 2), power(Inv(X), 2))),
            Mul(power(s, 2), power(Inv(s), 2)),
        )
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        cases = [step.description for step in d.evidence.steps]
        assert cases == ["all variables nonzero", "w = 0", "x = 0"]

    def test_searched_zero_sets_are_not_folded_again(self, monkeypatch):
        import meadows.decide

        folds, calls = count_points(monkeypatch, meadows.decide), []
        monkeypatch.setattr(
            meadows.decide, "decide_iamd", lambda *args: calls.append(args) or decide_iamd(*args)
        )
        names = [f"v{i}" for i in range(9)]
        lhs = reduce(Add, [Mul(Var(v), Inv(Var(v))) for v in names])
        rhs = squares_times_inverse_squares(names)
        assert decide_iamdz_gil(lhs, rhs).verdict
        # The pre-search compares the 10 zero sets with at most one variable.
        # Of the rest, all but the full set (both sides 0) go through
        # decide_iamd, which folds both sides at its all-ones point.
        assert len(calls) == 512 - 10 - 1
        assert len(folds) == 2 * 10 + 2 * len(calls)

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
        import meadows.evaluate

        # Every evaluation is counted, eval_total's and closed_normal's too.
        calls = count_points(monkeypatch, meadows.decide, meadows.evaluate)
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


def exhaustive_gil(t: Term, u: Term, searched: int) -> tuple[bool, dict | None]:
    """Reference for ``decide_iamdz_gil``: the 0/1 points of the first
    ``searched`` zero sets, then a case for every zero set, each decided
    by ``decide_iamd``.  The verdict and the counterexample's assignment.
    ``decide_iamdz_gil`` searches the empty set and the single variables,
    so it matches ``searched`` = number of variables + 1."""
    names = sorted({*free_vars(t), *free_vars(u)})
    zero_sets = [z for size in range(len(names) + 1) for z in combinations(names, size)]
    for zeros in zero_sets[:searched]:
        env = {v: Fraction(0) if v in zeros else Fraction(1) for v in names}
        if eval_total(t, env, Carrier.NON_NEGATIVE) != eval_total(u, env, Carrier.NON_NEGATIVE):
            return False, env
    for zeros in zero_sets:
        s, s2 = t, u
        for v in zeros:
            s, s2 = substitute(s, v, ZERO), substitute(s2, v, ZERO)
        s, s2 = zero_elim(s), zero_elim(s2)
        if s == ZERO and s2 == ZERO:
            continue
        if (s == ZERO) != (s2 == ZERO):
            env = dict.fromkeys(free_vars(s) + free_vars(s2), Fraction(1))
        else:
            d = decide_iamd(s, s2)
            if d.verdict:
                continue
            env = d.evidence.assignment
        return False, {**dict.fromkeys(names, Fraction(0)), **env}
    return True, None


def guarded_pairs(seeds: range):
    """Seeded iamdz pairs: random ones, s * t * s^-1 against t, and
    s * s^-1 * t against t * s^-1 * s."""
    for seed in seeds:
        rng = random.Random(seed)
        names = ("w", "x", "y", "z")[: rng.randint(1, 4)]
        t, u, s = (random_term(rng, SignatureId.IAMDZ, size, names) for size in (12, 12, 6))
        yield t, u
        yield Mul(Mul(s, t), Inv(s)), t
        yield Mul(Mul(s, Inv(s)), t), Mul(Mul(t, Inv(s)), s)


class TestGilSplitGuards:
    """The case split visits only the zero sets at which an inverted argument
    vanishes, yet decides as if it visited every zero set."""

    # A family cap of 1 cuts every guard of two or more minimal zero sets to
    # its single variables.
    @pytest.mark.parametrize("limits", [{}, {"_GUARD_FAMILY_LIMIT": 1}])
    def test_agrees_with_every_zero_set(self, monkeypatch, limits: dict):
        import meadows.decide

        for name, value in limits.items():
            monkeypatch.setattr(meadows.decide, name, value)
        atom_matches = record_atom_checks(monkeypatch)
        searches = []
        refuted_at = meadows.decide._refuted_at

        def recorded(t, u, sig, patterns, *rest):
            if sig is SignatureId.IAMDZ:
                searches.append(patterns)
            return refuted_at(t, u, sig, patterns, *rest)

        monkeypatch.setattr(meadows.decide, "_refuted_at", recorded)
        verdicts = []
        for t, u in guarded_pairs(range(200)):
            searches.clear()
            d = decide_iamdz_gil(t, u)
            names = sorted({*free_vars(t), *free_vars(u)})
            # One search, over all ones and each single zero; past them, the split.
            # A closed pair searches no point: its exact values decide it.
            assert searches == ([[(), *zip(names)]] if names else [])
            verdict, env = exhaustive_gil(t, u, len(names) + 1)
            assert d.verdict == verdict, (t, u)
            if not verdict:
                assert d.evidence.assignment == env, (t, u)
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)
        # The atom check decides 94 of the 600 pairs, so the exhaustive split
        # is its oracle too.
        assert sum(atom_matches) >= 80

    def test_every_inverted_argument_is_a_guard(self):
        # (1 + (x + y)^-1)^-1 has denominator x + y + 1, which never vanishes,
        # but the inverted argument x + y does, and at x = y = 0 the left side
        # is 1.  No single zero separates the sides, so the split must.
        s = Add(X, Y)
        lhs = Inv(Add(ONE, Inv(s)))
        rhs = Mul(s, Inv(Add(s, ONE)))
        assert decide_iamd(lhs, rhs).verdict
        d = decide_iamdz_gil(lhs, rhs)
        assert not d.verdict
        assert d.evidence.render() == "x = 0, y = 0  gives  1 != 0"

    def test_inverse_free_identity_is_one_comparison(self, monkeypatch):
        import meadows.decide

        compared, iamd_calls = [], []
        zero_free = meadows.decide._decide_zero_free
        monkeypatch.setattr(
            meadows.decide,
            "_decide_zero_free",
            lambda *args: compared.append(args) or zero_free(*args),
        )
        monkeypatch.setattr(
            meadows.decide, "decide_iamd", lambda *args: iamd_calls.append(args) or decide_iamd(*args)
        )
        terms = [Var(f"v{i}") for i in range(10)] + [ONE]
        lhs = power(reduce(Add, terms), 3)
        rhs = power(reduce(Add, reversed(terms)), 3)
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert len(compared) == 1 and not iamd_calls

    def test_guard_past_the_family_cap(self, monkeypatch):
        import meadows.decide

        # x1*y1 + ... + x5*y5 vanishes at 32 minimal zero sets, past the cap,
        # and first at x1 = ... = x5 = 0, past the 0/1 pre-search.
        pairs = [Mul(Var(f"x{i}"), Var(f"y{i}")) for i in range(1, 6)]
        total = reduce(Add, pairs)
        assert 2 ** len(pairs) > meadows.decide._GUARD_FAMILY_LIMIT
        t, u = Mul(total, Inv(total)), ONE
        d = decide_iamdz_gil(t, u)
        verdict, env = exhaustive_gil(t, u, 2 * len(pairs) + 1)
        assert (d.verdict, d.evidence.assignment) == (verdict, env)
        # x * x^-1 * x = x holds at every zero set.
        assert decide_iamdz_gil(Mul(t, total), total).verdict


def cyclic_pair(n: int) -> tuple[Term, Term]:
    """The sum over i of (v_i + v_j) * (v_i + v_j)^-1 + v_i * v_i^-1 * v_j * v_j^-1,
    j = i + 1 mod n, against the sum of v_i * v_i^-1 + v_j * v_j^-1: true only
    by the general inverse law, at every one of the 2^n zero sets."""
    v = [Var(f"v{i}") for i in range(n)]

    def unit(t: Term) -> Term:
        return Mul(t, Inv(t))

    edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    lhs = reduce(Add, [Add(unit(Add(a, b)), Mul(unit(a), unit(b))) for a, b in edges])
    rhs = reduce(Add, [Add(unit(a), unit(b)) for a, b in edges])
    return lhs, rhs


class TestCyclicFamily:
    """The cyclic family needs a case for every zero set, and the atom check
    cannot decide it."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_every_zero_set(self, monkeypatch, n: int):
        atom_matches = record_atom_checks(monkeypatch)
        lhs, rhs = cyclic_pair(n)
        d = decide_iamdz_gil(lhs, rhs)
        assert exhaustive_gil(lhs, rhs, n + 1) == (True, None)
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        assert len(d.evidence.steps) == 2**n
        names = [f"v{i}" for i in range(n)]
        assert [step.description for step in d.evidence.steps] == split_order(names)
        assert atom_matches == [False]

    @pytest.mark.parametrize("n", [4, 5])
    def test_plus_one_is_refuted_at_all_ones(self, n: int):
        lhs, rhs = cyclic_pair(n)
        d = decide_iamdz_gil(lhs, Add(rhs, ONE))
        assert not d.verdict
        assert d.evidence.assignment == {f"v{i}": Fraction(1) for i in range(n)}
        assert (d.evidence.lhs_value, d.evidence.rhs_value) == (2 * n, 2 * n + 1)


def record_atom_checks(monkeypatch) -> list[bool]:
    """Whether each atom check of ``decide_iamdz_gil`` matched, as it runs:
    the cross products of the last atomized pair of sides."""
    import meadows.decide

    matches, sides = [], []
    atomized, cross_products = meadows.decide._atomized, meadows.decide._cross_products

    def atomize(*args):
        sides.append(atomized(*args))
        return sides[-1]

    def recorded(t, u, max_monomials):
        lhs, rhs = cross_products(t, u, max_monomials)
        if sides[-1:] == [(t, u)]:
            matches.append(lhs == rhs)
        return lhs, rhs

    monkeypatch.setattr(meadows.decide, "_atomized", atomize)
    monkeypatch.setattr(meadows.decide, "_cross_products", recorded)
    return matches


class TestAtomCheck:
    """Sides equal with every inverse an opaque atom are true with no case split."""

    def test_decides_the_sum_family_without_a_split(self, monkeypatch):
        import meadows.decide

        calls = []
        for name in ("_decide_zero_free", "decide_iamd"):
            original = getattr(meadows.decide, name)
            monkeypatch.setattr(
                meadows.decide, name, lambda *args, f=original: calls.append(args) or f(*args)
            )
        names = [f"v{i}" for i in range(12)]
        lhs = reduce(Add, [Mul(Var(v), Inv(Var(v))) for v in names])
        rhs = reduce(Add, [Mul(Inv(Var(v)), Var(v)) for v in names])
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert d.evidence.lhs == d.evidence.rhs
        assert not calls
        lhs = reduce(Add, [Div(Var(v), Var(v)) for v in names])
        rhs = reduce(Add, [Mul(Div(ONE, Var(v)), Var(v)) for v in names])
        assert decide_divisive(lhs, rhs, TheoryId.RATDAZ_GIL) == d
        assert not calls

    def test_normals_name_each_atom_by_its_inverse(self):
        lhs = Mul(Inv(Add(X, Y)), Add(Mul(X, Inv(X)), Y))
        rhs = Add(Mul(Mul(Inv(X), X), Inv(Add(Y, X))), Mul(Y, Inv(Add(Y, X))))
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        assert d.evidence.render() == (
            "(x + y)^-1*x*x^-1 + (x + y)^-1*y  vs  (x + y)^-1*x*x^-1 + (x + y)^-1*y"
        )

    def test_each_argument_is_normalized_once(self, monkeypatch):
        import meadows.decide

        split = []

        def counted(t, max_monomials):
            split.append(t)
            return split_inverse(t, max_monomials)

        monkeypatch.setattr(meadows.decide, "split_inverse", counted)
        # Five inverses over three distinct arguments: x + y, x and y + x.
        lhs = Mul(Inv(Add(X, Y)), Add(Mul(X, Inv(X)), Y))
        rhs = Add(Mul(Mul(Inv(X), X), Inv(Add(Y, X))), Mul(Y, Inv(Add(Y, X))))
        assert decide_iamdz_gil(lhs, rhs).verdict
        assert split == [Add(X, Y), X, Add(Y, X)]

    def test_pair_without_a_guard_skips_the_check(self, monkeypatch):
        atom_matches = record_atom_checks(monkeypatch)
        s = Add(X, ONE)
        d = decide_iamdz_gil(Mul(Mul(s, Inv(s)), Y), Y)
        assert d.verdict
        assert not atom_matches

    def test_unequal_atoms_leave_the_verdict_to_the_split(self, monkeypatch):
        atom_matches = record_atom_checks(monkeypatch)
        d = decide_iamdz_gil(Mul(Mul(X, X), power(Inv(X), 2)), Mul(X, Inv(X)))
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)
        assert atom_matches == [False]

    def test_atom_inside_an_atom(self):
        # The outer atom is named by the inner one's text, whichever order its
        # argument's sum is written in.
        lhs = parse("(((x + y)^-1 + z)^-1 + x*x^-1) * (y + 1)").term
        rhs = parse("(z + (y + x)^-1)^-1*y + (z + (x+y)^-1)^-1 + x^-1*x*y + x*x^-1").term
        d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        side = "x*x^-1*y + ((x + y)^-1 + z)^-1*y + x*x^-1 + ((x + y)^-1 + z)^-1"
        assert d.evidence.render() == f"{side}  vs  {side}"

    def test_check_past_the_bound_leaves_the_verdict_to_the_split(self):
        # The atom of ((x + y + z)^10)^-1 expands (x + y + z)^10, 66 monomials,
        # which the split cancels unexpanded.
        big = Inv(power(Add(Add(X, Y), Var("z")), 10))
        lhs, rhs = Mul(big, Mul(X, Inv(X))), Mul(big, Mul(Inv(X), X))
        with pytest.raises(SizeLimit):
            split_inverse(power(Add(Add(X, Y), Var("z")), 10), max_monomials=50)
        d = decide_iamdz_gil(lhs, rhs, max_monomials=50)
        assert d.verdict
        assert isinstance(d.evidence, RecursionTrace)


def sum_of_units(n: int) -> tuple[Term, Term]:
    """The sum of v_i * v_i^-1 against the sum of v_i^-1 * v_i, i < n."""
    v = [Var(f"v{i}") for i in range(n)]
    return reduce(Add, [Mul(x, Inv(x)) for x in v]), reduce(Add, [Mul(Inv(x), x) for x in v])


class TestPreSearchOrder:
    """The 0/1 points with at most one zero come before the atom check, and
    the split after it."""

    @pytest.mark.parametrize("divisive", [False, True])
    def test_atom_check_skips_the_exponential_search(self, monkeypatch, divisive: bool):
        import meadows.decide

        folds = count_points(monkeypatch, meadows.decide)
        atom_matches = record_atom_checks(monkeypatch)
        n = 10
        lhs, rhs = sum_of_units(n)
        if divisive:
            lhs, rhs = inv_to_div(lhs), inv_to_div(rhs)
            d = decide_divisive(lhs, rhs, TheoryId.RATDAZ_GIL)
        else:
            d = decide_iamdz_gil(lhs, rhs)
        assert d.verdict
        assert isinstance(d.evidence, MatchedNormals)
        # All ones and each single zero, and no other of the 1024 zero sets.
        assert len(folds) == 2 * (n + 1)
        assert atom_matches == [True]

    def test_single_zero_refutes_before_the_atom_check(self, monkeypatch):
        atom_matches = record_atom_checks(monkeypatch)
        n = 10
        lhs, _ = sum_of_units(n)
        d = decide_iamdz_gil(lhs, numeral(n))
        assert d == Decision(
            False,
            Counterexample(
                {f"v{i}": Fraction(0 if i == 0 else 1) for i in range(n)},
                Fraction(n - 1),
                Fraction(n),
            ),
        )
        assert not atom_matches

    def test_two_zeros_refute_after_the_atom_check(self, monkeypatch):
        atom_matches = record_atom_checks(monkeypatch)
        s = Add(X, Y)
        t, u = Mul(s, Inv(s)), ONE
        d = decide_iamdz_gil(t, u)
        verdict, env = exhaustive_gil(t, u, 3)
        assert not verdict
        assert env == {"x": Fraction(0), "y": Fraction(0)}
        assert d == Decision(False, Counterexample(env, Fraction(0), Fraction(1)))
        assert atom_matches == [False]

    def test_split_refutes_past_the_single_zeros(self):
        # The sides first differ at x = y = z = 0 (1 against 0), but they are
        # inverse-free, so the split has one case, which fails on its cross
        # products.
        z = Var("z")
        t = Add(Add(Add(ONE, Mul(X, Y)), Mul(Y, z)), Mul(z, X))
        u = Add(Add(Add(X, Y), z), Mul(Mul(X, Y), z))
        d = decide_iamdz_gil(t, u)
        assert (d.verdict, d.evidence.assignment) == exhaustive_gil(t, u, 4)
        assert d.evidence.render() == "x = 2, y = 2, z = 2  gives  13 != 14"
        values = (eval_total(s, d.evidence.assignment, Carrier.NON_NEGATIVE) for s in (t, u))
        assert tuple(values) == (d.evidence.lhs_value, d.evidence.rhs_value)

    def test_case_past_the_bound_leaves_the_refutation_to_a_zero_one_point(self):
        # P = (a + b + c + d + 1)^5 against its 126-monomial expansion P':
        # case ∅ exceeds the bound of 100, yet x = y = 0 separates the sides.
        p = power(reduce(Add, [Var(v) for v in "abcd"], ONE), 5)
        expanded = parse(split_inverse(p).numerator.render()).term
        units = Add(Mul(X, Inv(X)), Mul(Y, Inv(Y)))
        t, u = Mul(p, units), Mul(expanded, Add(ONE, Mul(Mul(X, Inv(X)), Mul(Y, Inv(Y)))))
        d = decide_iamdz_gil(t, u, max_monomials=100)
        env = {**dict.fromkeys("abcd", Fraction(1)), "x": Fraction(0), "y": Fraction(0)}
        assert d == Decision(False, Counterexample(env, Fraction(0), Fraction(3125)))
        # A true twin finds no such point, so the bound still stops it.
        s = Add(X, Y)
        with pytest.raises(SizeLimit):
            decide_iamdz_gil(t, Mul(u, Mul(s, Inv(s))), max_monomials=100)


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

        folds = count_points(monkeypatch, meadows.decide)
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


DERIVED_PAIR_DECIDERS = {
    TheoryId.IAMD: decide_iamd,
    TheoryId.RATIAZ_GIL: decide_iamdz_gil,  # from the equational axioms only
    TheoryId.DAMD: lambda t, u: decide_divisive(t, u, TheoryId.DAMD),
    TheoryId.RATDAZ_GIL: lambda t, u: decide_divisive(t, u, TheoryId.RATDAZ_GIL),
}


@pytest.mark.parametrize("theory", list(DERIVED_PAIR_DECIDERS), ids=lambda id: id.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pairs_derived_from_the_axioms_are_proved(theory, data):
    t, u = data.draw(derived_pairs(theory))
    assert DERIVED_PAIR_DECIDERS[theory](t, u).verdict


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
