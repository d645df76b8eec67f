"""Tests for punched partial evaluation and the definedness classifier."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    Add,
    Carrier,
    CarrierViolation,
    DefClass,
    Defined,
    Div,
    Inv,
    Mul,
    NotInSignature,
    ONE,
    PunchId,
    SignatureId,
    SignatureMismatch,
    UNDEFINED,
    UnboundVariable,
    Var,
    ZERO,
    classify_def,
    eval_punched,
    eval_total,
    free_vars,
    numeral,
    power,
)
from meadows.terms import Term
from termgen import random_term, reference_value

X = Var("x")
Y = Var("y")


def nonneg_env(rng: random.Random, names) -> dict:
    return {n: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for n in names}


class TestEvalPunched:
    def test_punched_inverse_of_zero(self):
        assert eval_punched(Inv(ZERO), {}, PunchId.INV0) is UNDEFINED

    def test_zero_over_zero_survives_the_weak_punch(self):
        assert eval_punched(Div(ZERO, ZERO), {}, PunchId.DIV_NONZERO0) == Defined(Fraction(0))

    def test_away_from_the_punched_point(self):
        got = eval_punched(Add(ONE, Inv(numeral(2))), {}, PunchId.INV0)
        assert got == Defined(Fraction(3, 2))

    def test_punch_strength_at_zero_over_zero(self):
        assert eval_punched(Div(ZERO, ZERO), {}, PunchId.DIV_ALL0) is UNDEFINED
        assert eval_punched(Div(ONE, ZERO), {}, PunchId.DIV_ALL0) is UNDEFINED
        assert eval_punched(Div(ONE, ZERO), {}, PunchId.DIV_NONZERO0) is UNDEFINED

    def test_strict_propagation(self):
        # The total semantics gives 0 for both; the punch makes the
        # subterm undefined and strictness carries it to the top.
        assert eval_punched(Mul(ZERO, Inv(ZERO)), {}, PunchId.INV0) is UNDEFINED
        assert eval_punched(Mul(ZERO, Div(ONE, ZERO)), {}, PunchId.DIV_ALL0) is UNDEFINED
        assert eval_punched(Add(Inv(ZERO), ONE), {}, PunchId.INV0) is UNDEFINED

    def test_signature_must_match_punch(self):
        with pytest.raises(SignatureMismatch):
            eval_punched(Div(X, Y), {"x": Fraction(1), "y": Fraction(1)}, PunchId.INV0)
        with pytest.raises(SignatureMismatch):
            eval_punched(Inv(X), {"x": Fraction(1)}, PunchId.DIV_ALL0)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_punched(X, {}, PunchId.INV0)

    def test_rejects_negative_environment(self):
        with pytest.raises(CarrierViolation):
            eval_punched(X, {"x": Fraction(-1)}, PunchId.INV0)

    def test_variable_lookup(self):
        assert eval_punched(X, {"x": Fraction(5, 2)}, PunchId.INV0) == Defined(Fraction(5, 2))

    @pytest.mark.parametrize("punch", list(PunchId))
    @pytest.mark.parametrize("x", [0, 2])
    def test_power_of_a_quotient_by_zero(self, punch, x):
        # The base is walked once and its value reused at each link of the chain.
        quotient = Div(X, ZERO) if punch.signature is SignatureId.DAMDZ else Mul(X, Inv(ZERO))
        two = numeral(2)
        for t in (power(quotient, 3), power(Add(quotient, two), 3), power(Add(X, two), 3)):
            env = {"x": Fraction(x)}
            expected = reference_value(t, env, punch)
            assert eval_punched(t, env, punch) == (
                UNDEFINED if expected is None else Defined(expected)
            )

    @given(st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_defined_results_agree_with_total_semantics(self, seed: int):
        rng = random.Random(seed)
        punch = rng.choice(list(PunchId))
        t = random_term(rng, punch.signature, max_size=14, variables=("x", "y"))
        env = nonneg_env(rng, ("x", "y"))
        got = eval_punched(t, env, punch)
        if isinstance(got, Defined):
            assert got.value == eval_total(t, env, Carrier.NON_NEGATIVE)

    @given(st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_punches_only_differ_at_zero_over_zero(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.DAMDZ, max_size=14, variables=("x", "y"))
        env = nonneg_env(rng, ("x", "y"))
        strong = eval_punched(t, env, PunchId.DIV_ALL0)
        weak = eval_punched(t, env, PunchId.DIV_NONZERO0)
        # The weak punch defines everything the strong one defines.
        if isinstance(strong, Defined):
            assert weak == strong

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_strict_reference_under_every_punch(self, seed: int):
        rng = random.Random(seed)
        for punch in PunchId:
            t = random_term(rng, punch.signature, max_size=14, variables=("x", "y"))
            env = {v: Fraction(rng.randint(0, 2)) for v in ("x", "y")}
            expected = reference_value(t, env, punch)
            got = eval_punched(t, env, punch)
            assert got == (UNDEFINED if expected is None else Defined(expected))


class TestClassifyDef:
    def test_inverse_of_two_is_nonzero(self):
        assert classify_def(Inv(numeral(2))) is DefClass.IN_NZ

    def test_inverse_of_zero_is_outside(self):
        assert classify_def(Inv(ZERO)) is DefClass.OUTSIDE
        assert eval_punched(Inv(ZERO), {}, PunchId.INV0) is UNDEFINED

    def test_product_with_zero_is_defined_but_maybe_zero(self):
        assert classify_def(Mul(ZERO, X)) is DefClass.IN_DEF_ONLY

    def test_zero_is_defined(self):
        assert classify_def(ZERO) is DefClass.IN_DEF_ONLY

    def test_one_is_nonzero(self):
        assert classify_def(ONE) is DefClass.IN_NZ

    def test_variables_may_be_zero(self):
        assert classify_def(X) is DefClass.IN_DEF_ONLY

    def test_nonzero_plus_defined_is_nonzero(self):
        assert classify_def(Add(ONE, X)) is DefClass.IN_NZ
        assert classify_def(Add(X, ONE)) is DefClass.IN_NZ

    def test_nonzero_product(self):
        assert classify_def(Mul(Add(ONE, X), Inv(numeral(3)))) is DefClass.IN_NZ

    def test_guarded_addition_blocks_undefined_summand(self):
        t = Add(ONE, Inv(ZERO))
        assert classify_def(t) is DefClass.OUTSIDE
        assert eval_punched(t, {}, PunchId.INV0) is UNDEFINED

    def test_rejects_non_iamdz_terms(self):
        from meadows import Neg

        with pytest.raises(NotInSignature):
            classify_def(Neg(X))
        with pytest.raises(NotInSignature):
            classify_def(Div(X, Y))

    @given(st.integers(0, 800))
    @settings(max_examples=120, deadline=None)
    def test_closed_soundness(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=14)
        cls = classify_def(t)
        result = eval_punched(t, {}, PunchId.INV0)
        if cls.in_def:
            assert isinstance(result, Defined)
        if cls is DefClass.IN_NZ:
            assert isinstance(result, Defined)
            assert result.value > 0

    @given(st.integers(0, 800))
    @settings(max_examples=80, deadline=None)
    def test_open_soundness(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=12, variables=("x", "y"))
        cls = classify_def(t)
        if not cls.in_def:
            return
        for _ in range(10):
            env = nonneg_env(rng, sorted(free_vars(t)))
            result = eval_punched(t, env, PunchId.INV0)
            assert isinstance(result, Defined)
            if cls is DefClass.IN_NZ:
                assert result.value > 0

    def test_completeness_gap_is_measured_not_asserted(self):
        # The syntactic criterion is conservative: some closed terms it
        # places outside Def still evaluate without hitting the punch.
        defined = missed = 0
        for seed in range(600):
            t = random_term(random.Random(seed), SignatureId.IAMDZ, max_size=12)
            if isinstance(eval_punched(t, {}, PunchId.INV0), Defined):
                defined += 1
                if classify_def(t) is DefClass.OUTSIDE:
                    missed += 1
        assert defined > 0
        print(f"\ndefinedness criterion misses {missed} of {defined} defined closed terms")


def subterm_paths(t: Term) -> list:
    paths = [()]
    for field in ("left", "right", "arg"):
        child = getattr(t, field, None)
        if child is not None:
            paths.extend((field, *rest) for rest in subterm_paths(child))
    return paths


def subterm_at(t: Term, path) -> Term:
    for field in path:
        t = getattr(t, field)
    return t


def replace_at(t: Term, path, replacement: Term) -> Term:
    if not path:
        return replacement
    field, *rest = path
    if field == "arg":
        return type(t)(replace_at(t.arg, rest, replacement))
    if field == "left":
        return type(t)(replace_at(t.left, rest, replacement), t.right)
    return type(t)(t.left, replace_at(t.right, rest, replacement))


STRONGER = {
    DefClass.IN_NZ: [ONE, Inv(numeral(2)), Add(ONE, ONE)],
    DefClass.IN_DEF_ONLY: [ZERO, Mul(ZERO, ONE), ONE, Inv(numeral(3))],
}


class TestMonotonicity:
    @given(st.integers(0, 800))
    @settings(max_examples=80, deadline=None)
    def test_replacing_with_same_or_stronger_class_stays_defined(self, seed: int):
        rng = random.Random(seed)
        t = random_term(rng, SignatureId.IAMDZ, max_size=12, variables=("x",))
        if not classify_def(t).in_def:
            return
        path = rng.choice(subterm_paths(t))
        cls = classify_def(subterm_at(t, path))
        assert cls.in_def  # every subterm of a defined term is defined
        replacement = rng.choice(STRONGER[cls])
        replaced = replace_at(t, path, replacement)
        assert classify_def(replaced).in_def
