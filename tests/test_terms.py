import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    ONE,
    ZERO,
    Add,
    Carrier,
    Div,
    Inv,
    MeadowError,
    Mul,
    Neg,
    One,
    SignatureId,
    Var,
    Zero,
    ZeroNotInSignature,
    classify_def,
    conforms,
    decide_iamd,
    decide_iamdz_gil,
    div_to_inv,
    eval_total,
    free_vars,
    inv_to_div,
    is_closed,
    numeral,
    parse_term,
    power,
    render,
    split_inverse,
    substitute,
    term_from_dict,
    term_size,
    term_to_dict,
    zero_elim,
)
from meadows.normalize import _restrict
from meadows.terms import constructors, fold, rebuild
from termgen import random_env, random_term

X, Y = Var("x"), Var("y")


def test_numeral_base_cases():
    assert numeral(0, SignatureId.IAMDZ) == ZERO
    assert numeral(1, SignatureId.IAMD) == ONE


def test_numeral_left_nested():
    assert numeral(3, SignatureId.IAMD) == Add(Add(One(), One()), One())
    assert numeral(2) == Add(ONE, ONE)


def test_numeral_zero_needs_zero_constant():
    with pytest.raises(ZeroNotInSignature):
        numeral(0, SignatureId.IAMD)
    with pytest.raises(ZeroNotInSignature):
        numeral(0, SignatureId.DAMD)


def test_power_unfolds_iterated_product():
    assert power(X, 0) == ONE
    assert power(X, 2) == Mul(Mul(ONE, X), X)


def test_power_of_one_evaluates_to_one():
    from meadows import eval_total

    assert eval_total(power(ONE, 5), {}) == 1


def test_conforms_examples():
    assert conforms(Inv(X), SignatureId.IAMD)
    assert not conforms(ZERO, SignatureId.IAMD)
    assert not conforms(Div(ONE, X), SignatureId.IAMDZ)


def test_conforms_respects_signature_table():
    # IAMD forbids Zero, Neg, Div; DAMDZ forbids Neg, Inv.
    assert not conforms(Neg(X), SignatureId.IAMD)
    assert not conforms(Div(X, Y), SignatureId.IAMD)
    assert not conforms(Neg(X), SignatureId.DAMDZ)
    assert not conforms(Inv(X), SignatureId.DAMDZ)
    assert conforms(Div(X, Y), SignatureId.DAMDZ)
    assert not conforms(Inv(X), SignatureId.CR)
    assert conforms(Neg(X), SignatureId.CR)


def test_substitute_examples():
    assert substitute(Mul(X, Inv(X)), "x", ZERO) == Mul(ZERO, Inv(ZERO))
    assert substitute(Var("y"), "x", ONE) == Var("y")
    two = numeral(2, SignatureId.IAMD)
    assert substitute(Add(X, X), "x", two) == Add(two, two)


def test_free_vars_sorted():
    assert free_vars(ONE) == ()
    assert free_vars(Mul(Y, X)) == ("x", "y")
    assert free_vars(Inv(X)) == ("x",)


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("X")
    with pytest.raises(ValueError):
        Var("2x")
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("inv")
    Var("x_1")


def test_operator_sugar():
    assert X + Y == Add(X, Y)
    assert X * Y == Mul(X, Y)
    assert -X == Neg(X)
    assert X / Y == Div(X, Y)
    assert X ** -1 == Inv(X)
    assert X ** 2 == power(X, 2)
    assert X.inv() == Inv(X)


@given(st.integers(min_value=0, max_value=40), st.sampled_from(list(SignatureId)))
def test_numeral_conforms(n, sig):
    if n == 0 and not sig.has_zero:
        return
    assert conforms(numeral(n, sig), sig)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=6))
def test_generated_terms_conform_and_respect_size(seed, sig_index):
    sig = list(SignatureId)[sig_index]
    rng = random.Random(seed)
    t = random_term(rng, sig, 25, ("x", "y"))
    assert conforms(t, sig)
    assert term_size(t) <= 25


@given(st.integers(min_value=0, max_value=2**31))
def test_substitute_self_is_identity(seed):
    rng = random.Random(seed)
    t = random_term(rng, SignatureId.IAMDZ, 20, ("x", "y"))
    assert substitute(t, "x", X) == t


@given(st.integers(min_value=0, max_value=2**31))
def test_free_vars_after_substitution(seed):
    rng = random.Random(seed)
    t = random_term(rng, SignatureId.IAMDZ, 20, ("x", "y"))
    s = random_term(rng, SignatureId.IAMDZ, 10, ("z",))
    before = set(free_vars(t))
    after = set(free_vars(substitute(t, "x", s)))
    expected = before - {"x"}
    if "x" in before:
        expected |= set(free_vars(s))
    assert after == expected


def test_is_closed_and_size():
    assert is_closed(numeral(4))
    assert not is_closed(Add(ONE, X))
    assert term_size(Add(Add(ONE, ONE), ONE)) == 5
    assert term_size(X) == 1


def test_terms_are_immutable_and_hashable():
    t = Mul(X, Inv(X))
    assert hash(t) == hash(Mul(X, Inv(X)))
    with pytest.raises(AttributeError):
        t.left = ONE


def _visits(t) -> int:
    """How many times a fold over ``t`` calls ``visit``."""
    visited = []
    fold(t, lambda node, *children: visited.append(node))
    return len(visited)


def _operands(node) -> tuple:
    arity = node._arity
    return (node.left, node.right) if arity == 2 else (node.arg,) if arity else ()


class TestPowerChains:
    """``t^n`` repeats one ``t`` object, and a fold visits that object once
    when it is not a leaf."""

    def test_a_power_of_a_compound_base_folds_its_base_once(self):
        t = parse_term("(x + y)^2")
        assert t.right is t.left.right
        assert (_visits(t), term_size(t)) == (6, 9)

    def test_a_power_inside_every_constructor_folds_its_base_once(self):
        for text in ("-((x + y)^2) + 1", "1 + ((x + y)^2)^-1", "z / (x * y)^2"):
            t = parse_term(text)
            assert _visits(t) == term_size(t) - 3

    def test_a_leaf_base_is_visited_at_each_place(self):
        for text in ("x^5", "x^5 * y^2 + 1"):
            t = parse_term(text)
            assert _visits(t) == term_size(t)

    def test_equal_factors_of_separate_parses_are_each_visited(self):
        t = parse_term("(x+1)*(x+1)")
        assert t.left == t.right and t.left is not t.right
        assert _visits(t) == term_size(t)

    @pytest.mark.parametrize(
        "rewrite, text, expected",
        [
            (div_to_inv, "(x / y + 1)^3", "(x * y^-1 + 1)^3"),
            (zero_elim, "(x + 0 + y)^4", "(x + y)^4"),
            (lambda t: _restrict(t, {"y"}), "(x + y + z)^3", "(x + z)^3"),
            (inv_to_div, "((x + 1)^-1 + y)^2", "(1 / (x + 1) + y)^2"),
        ],
    )
    def test_rewrites_keep_one_base_object(self, rewrite, text, expected):
        t = parse_term(text)
        out = rewrite(t)
        assert render(out) == expected
        assert out.right is out.left.right
        assert _visits(out) < term_size(out)
        assert out == rewrite(term_from_dict(term_to_dict(t)))

    def test_fold_visits_a_power_base_once(self):
        t = parse_term("(x + y + 1)^6")
        visits = Counter()
        assert fold(t, lambda node, *children: visits.update([id(node)])) is None
        objects, stack = {}, [t]
        while stack:
            node = stack.pop()
            objects[id(node)] = node
            stack.extend(_operands(node))
        assert visits.keys() == objects.keys()
        # The constant 1 is one object, met as the chain's first factor and
        # as the base's last summand; every other object is visited once.
        assert visits.pop(id(ONE)) == 2
        assert set(visits.values()) == {1}
        assert len(visits) == 10
        # The size still counts every occurrence.
        assert term_size(t) == 37

    def test_each_link_gets_its_factors_result(self):
        t = parse_term("((x + y)^2 + 1)^3 * (x + y)^2")

        def visit(node, *children):
            assert children == tuple(map(render, _operands(node)))
            return render(node)

        assert fold(t, visit) == render(t)


def _powered(rng: random.Random, sig: SignatureId):
    """A generated term with at most two of its subterms raised to the power 2 or 3."""
    budget = [2]

    def visit(node, *children):
        rebuilt = rebuild(node, *children)
        if budget[0] and rng.random() < 0.3:
            budget[0] -= 1
            return power(rebuilt, rng.randint(2, 3))
        return rebuilt

    return fold(random_term(rng, sig, 10, ("x", "y", "z")), visit)


def _outcome(f, *args):
    """``("value", f(*args))``, or the type and text of the error it raises."""
    try:
        return "value", f(*args)
    except MeadowError as exc:
        return type(exc), str(exc)


@given(
    st.integers(0, 10**6),
    st.sampled_from([SignatureId.IAMDZ, SignatureId.IAMD, SignatureId.DAMDZ, SignatureId.IMD]),
)
@settings(max_examples=120, deadline=None)
def test_shared_powers_give_the_results_of_unshared_copies(seed, sig):
    rng = random.Random(seed)
    t, u = _powered(rng, sig), _powered(rng, sig)
    t2, u2, t3 = (term_from_dict(term_to_dict(s)) for s in (t, u, t))
    assert (t2, u2) == (t, u)
    assert _visits(t2) == term_size(t2)
    assert term_size(t) == term_size(t2)
    assert render(t) == render(t2)
    assert (free_vars(t), constructors(t)) == (free_vars(t2), constructors(t2))
    for carrier in Carrier:
        names = ("x", "y", "z") if rng.random() < 0.8 else ("x", "y")
        env = random_env(rng, names, carrier)
        assert _outcome(eval_total, t, env, carrier) == _outcome(eval_total, t2, env, carrier)
    for f in (split_inverse, zero_elim, div_to_inv, inv_to_div, classify_def):
        assert _outcome(f, t) == _outcome(f, t2)
    for decide in (decide_iamd, decide_iamdz_gil):
        for pair, copies in (((t, u), (t2, u2)), ((t, u2), (t2, u2)), ((t, t2), (t2, t3))):
            kind, decision = _outcome(decide, *copies)
            assert _outcome(decide, *pair) == (kind, decision)
            if kind == "value":
                assert decide(*pair).evidence.render() == decision.evidence.render()
