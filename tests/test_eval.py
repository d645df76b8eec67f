import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    ONE,
    ZERO,
    Add,
    Carrier,
    CarrierViolation,
    Div,
    Inv,
    Mul,
    Neg,
    NotInSignature,
    SignatureId,
    UnboundVariable,
    Var,
    Zero,
    eval_total,
    numeral,
    parse_rational,
    parse_term,
    power,
)
from meadows.evaluate import _evaluator, _lookup
from meadows.terms import constructors
from termgen import random_env, random_term, reference_value

X = Var("x")


def test_inverse_of_zero_is_zero():
    assert eval_total(Inv(ZERO), {}, Carrier.NON_NEGATIVE) == 0


def test_division_by_zero_is_zero():
    # 3 / 0 = 3 * (1 / 0) = 3 * 0 under the zero-totalized reading.
    assert eval_total(Div(numeral(3), ZERO), {}, Carrier.ALL) == 0
    assert eval_total(Div(ZERO, ZERO), {}, Carrier.ALL) == 0


def test_inverse_cancels_for_nonzero():
    env = {"x": Fraction(5, 7)}
    assert eval_total(Mul(X, Inv(X)), env, Carrier.POSITIVE) == 1


def test_numerals_evaluate_to_their_value():
    for n in range(12):
        assert eval_total(numeral(n), {}) == n


def test_carrier_restrictions():
    with pytest.raises(CarrierViolation):
        eval_total(ZERO, {}, Carrier.POSITIVE)
    with pytest.raises(CarrierViolation):
        eval_total(Neg(ONE), {}, Carrier.NON_NEGATIVE)
    with pytest.raises(CarrierViolation):
        eval_total(X, {"x": Fraction(-1)}, Carrier.POSITIVE)
    with pytest.raises(CarrierViolation):
        eval_total(X, {"x": Fraction(0)}, Carrier.POSITIVE)
    assert eval_total(Neg(ONE), {}, Carrier.ALL) == -1


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_total(X, {}, Carrier.ALL)


def test_each_variable_is_read_once():
    class CountingEnv(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    reads = []
    env = CountingEnv(x=Fraction(2, 3))
    assert eval_total(parse_term("x + x * x"), env) == Fraction(10, 9)
    assert reads == ["x"]


def test_errors_come_in_post_order():
    # An unbound variable met before a constructor outside the carrier is
    # reported first, and the other way round; of two refused constructors
    # the first met is named.
    with pytest.raises(UnboundVariable):
        eval_total(Add(X, Neg(ONE)), {}, Carrier.NON_NEGATIVE)
    with pytest.raises(CarrierViolation):
        eval_total(Add(Neg(ONE), X), {}, Carrier.NON_NEGATIVE)
    with pytest.raises(CarrierViolation, match="negation"):
        eval_total(Add(Neg(ONE), ZERO), {}, Carrier.POSITIVE)
    with pytest.raises(CarrierViolation, match="constant 0"):
        eval_total(Add(ZERO, Neg(ONE)), {}, Carrier.POSITIVE)


def test_signature_errors_come_in_post_order():
    sig = SignatureId.IAMD
    lookup = _lookup({}, Carrier.ALL)
    with pytest.raises(UnboundVariable):
        _evaluator(Mul(X, Div(ONE, ONE)), sig.constructors, NotInSignature)(lookup)
    with pytest.raises(NotInSignature):
        _evaluator(Mul(Div(ONE, ONE), X), sig.constructors, NotInSignature)(lookup)
    # Listing the term raises nothing: the error belongs to each point.
    evaluate = _evaluator(power(Div(X, ONE), 3), sig.constructors, NotInSignature)
    for _ in range(2):
        with pytest.raises(UnboundVariable):
            evaluate(lookup)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    with pytest.raises(CarrierViolation):
        parse_rational("-1", Carrier.NON_NEGATIVE)
    with pytest.raises(CarrierViolation):
        parse_rational("0", Carrier.POSITIVE)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


@given(st.integers(min_value=0, max_value=2**31))
def test_compositional(seed):
    rng = random.Random(seed)
    sig = rng.choice(list(SignatureId))
    t = random_term(rng, sig, 18, ("x", "y"))
    env = random_env(rng, ("x", "y"), Carrier.ALL)
    value = eval_total(t, env)
    if isinstance(t, Add):
        assert value == eval_total(t.left, env) + eval_total(t.right, env)
    elif isinstance(t, Mul):
        assert value == eval_total(t.left, env) * eval_total(t.right, env)
    elif isinstance(t, Neg):
        assert value == -eval_total(t.arg, env)
    elif isinstance(t, Inv):
        inner = eval_total(t.arg, env)
        assert value == (0 if inner == 0 else 1 / inner)
    elif isinstance(t, Div):
        denom = eval_total(t.right, env)
        assert value == (0 if denom == 0 else eval_total(t.left, env) / denom)


@given(st.integers(min_value=0, max_value=2**31))
def test_results_stay_in_carrier(seed):
    rng = random.Random(seed)
    t = random_term(rng, SignatureId.IAMD, 18, ("x",))
    env = random_env(rng, ("x",), Carrier.POSITIVE)
    assert eval_total(t, env, Carrier.POSITIVE) > 0
    t = random_term(rng, SignatureId.IAMDZ, 18, ("x",))
    env = random_env(rng, ("x",), Carrier.NON_NEGATIVE)
    assert eval_total(t, env, Carrier.NON_NEGATIVE) >= 0


# The constructors each carrier refuses, written out apart from the library's table.
REFUSED = {Carrier.POSITIVE: {Zero, Neg}, Carrier.NON_NEGATIVE: {Neg}, Carrier.ALL: set()}


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_agrees_with_reference_on_every_signature_and_carrier(seed):
    rng = random.Random(seed)
    for sig in SignatureId:
        t = random_term(rng, sig, 14, ("x", "y", "z"))
        for carrier in Carrier:
            env = random_env(rng, ("x", "y", "z"), carrier)
            if constructors(t) & REFUSED[carrier]:
                with pytest.raises(CarrierViolation):
                    eval_total(t, env, carrier)
            else:
                value = eval_total(t, env, carrier)
                assert isinstance(value, Fraction)
                assert value == reference_value(t, env)
