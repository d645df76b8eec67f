"""Terms nested 10^4 deep through every public function and every CLI subcommand.

Each call must give an exact answer or raise a typed MeadowError; a
RecursionError fails the test.  The decision procedures get depth 3000
(three times the default recursion limit) instead: their witness
searches evaluate both sides at up to about 100 rational points, and one
evaluation of x^(10^4) at 7/3 takes about 0.1 s.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import meadows
from meadows import (
    ONE,
    Add,
    Carrier,
    ContainsInverse,
    Counterexample,
    Decision,
    DefClass,
    Defined,
    Div,
    Equation,
    Inv,
    MeadowError,
    MixedSignature,
    Neg,
    NotClosed,
    NotInSignature,
    NumeralStyle,
    One,
    PosPoly,
    PunchId,
    SchemaError,
    SignatureId,
    SignatureMismatch,
    TheoryId,
    UNDEFINED,
    Var,
    Zero,
    classify_def,
    closed_normal,
    conforms,
    decide_closed,
    decide_divisive,
    decide_iamd,
    decide_iamdz_gil,
    deserialize,
    div_to_inv,
    eval_punched,
    eval_total,
    free_vars,
    inv_to_div,
    is_closed,
    numeral,
    numeral_value,
    parse,
    parse_term,
    poly_normal,
    power,
    render,
    serialize,
    split_inverse,
    substitute,
    term_from_dict,
    term_size,
    term_to_dict,
    zero_elim,
)
from meadows.cli import main
from meadows.evaluate import _REDUCE_BITS, _evaluator
from meadows.terms import _SET_HASH

DEPTH = 10**4
DECIDE_DEPTH = 3000
X = Var("x")
TWO = Fraction(2)
KINDS = ("numeral", "power", "neg", "inv", "div")


def deep_term(kind: str, n: int):
    """The term, the narrowest signature that admits it, and its value at x = 2."""
    if kind == "numeral":
        return numeral(n), SignatureId.IAMD, Fraction(n)
    if kind == "power":
        return power(X, n), SignatureId.IAMD, TWO**n
    t = X
    for _ in range(n):
        t = Neg(t) if kind == "neg" else Inv(t) if kind == "inv" else Div(X, t)
    # n is even, so every nest has the value of x itself.
    sig = {"neg": SignatureId.CR, "inv": SignatureId.IAMD, "div": SignatureId.DAMD}[kind]
    return t, sig, TWO


def call(fn, *args):
    """``fn(*args)``, or the MeadowError it raises."""
    try:
        return fn(*args)
    except MeadowError as exc:
        return exc


@pytest.fixture(scope="module", params=KINDS)
def deep(request):
    return (request.param, *deep_term(request.param, DEPTH))


def test_hash_eq_repr(deep):
    kind, t, _, _ = deep
    copy = deep_term(kind, DEPTH)[0]
    assert copy is not t
    assert hash(t) == hash(copy)
    assert t == copy
    assert t != deep_term(kind, DEPTH - 2)[0]
    assert t != Add(copy, ONE)
    text = repr(t)
    assert text.startswith(f"{type(t).__name__}(")
    assert text.count("(") == text.count(")") == term_size(t)
    law = Equation(t, copy)
    assert law == Equation(copy, t) and hash(law) == hash(Equation(copy, t))
    assert law.render() == f"{render(t)} = {render(t)}"


def hash_twins(a, b, n: int):
    """``x / -(…)`` nested n times over each of the leaves ``a`` and ``b``,
    every node of the second tree given the cached hash of the first's."""
    _SET_HASH(b, a._hash)
    for _ in range(n):
        for make in (Neg, lambda s: Div(X, s)):
            a, b = make(a), make(b)
            _SET_HASH(b, a._hash)
    return a, b


@pytest.mark.parametrize("leaves", [lambda: (X, Var("y")), lambda: (Zero(), One())],
                         ids=["name", "class"])
def test_equal_hashes_are_compared_down_to_the_leaves(leaves):
    # Only the leaves at depth 10^4 tell the trees apart, by a variable name
    # or by a class, so equality must reach them without recursing.
    t, u = hash_twins(*leaves(), DEPTH // 2)
    assert hash(t) == hash(u)
    assert t != u and u != t


def test_structure_functions(deep):
    kind, t, sig, value = deep
    assert conforms(t, sig)
    assert free_vars(t) == (() if kind == "numeral" else ("x",))
    assert is_closed(t) == (kind == "numeral")
    sizes = {"numeral": 2 * DEPTH - 1, "power": 2 * DEPTH + 1, "neg": DEPTH + 1,
             "inv": DEPTH + 1, "div": 2 * DEPTH + 1}
    assert term_size(t) == sizes[kind]
    assert numeral_value(t) == (DEPTH if kind == "numeral" else None)
    assert eval_total(substitute(t, "x", numeral(2)), {}) == value
    assert eval_total(power(t, 2), {"x": TWO}) == value**2


def test_syntax_round_trips(deep):
    kind, t, _, _ = deep
    text = render(t)
    expected = {"numeral": str(DEPTH), "power": f"x^{DEPTH}", "neg": "-" * DEPTH + "x",
                "inv": "x" + "^-1" * DEPTH}
    if kind in expected:
        assert text == expected[kind]
    assert parse(text).term == t
    assert parse_term(render(t, NumeralStyle.STRUCTURAL)) == t
    assert term_from_dict(term_to_dict(t)) == t
    # The json module itself recurses, so a document this deep is refused.
    assert isinstance(call(serialize, t), SchemaError)


def test_evaluation(deep):
    kind, t, sig, value = deep
    assert eval_total(t, {"x": TWO}, Carrier.ALL) == value
    for punch in PunchId:
        result = call(eval_punched, t, {"x": TWO}, punch)
        if conforms(t, punch.signature):
            assert result == Defined(value)
        else:
            assert isinstance(result, SignatureMismatch)
    expected = {"numeral": DefClass.IN_NZ, "power": DefClass.IN_DEF_ONLY,
                "inv": DefClass.OUTSIDE}
    result = call(classify_def, t)
    assert result == expected[kind] if kind in expected else isinstance(result, NotInSignature)


def test_evaluation_with_a_growing_denominator():
    # Left-nested, the sum is 10^4 fractions deep, and its denominator is
    # 3^(10^4) until the value is reduced.
    t = Inv(X)
    for _ in range(DEPTH - 1):
        t = Add(t, Inv(X))
    three = {"x": Fraction(3)}
    assert eval_total(t, three) == Fraction(DEPTH, 3)
    assert eval_punched(t, three, PunchId.INV0) == Defined(Fraction(DEPTH, 3))
    assert eval_punched(t, {"x": Fraction(0)}, PunchId.INV0) is UNDEFINED


def test_cancelling_quotients_stay_small():
    # x / (x / (... / x)) is 2 or 1 at every level, but its unreduced pair
    # gains a bit per level until a quotient reduces it.
    t, sig, value = deep_term("div", DEPTH)
    p, q, _ = _evaluator(t, sig.constructors, NotInSignature)(lambda name: (2, 1))
    assert Fraction(p, q) == value
    assert max(abs(p), abs(q)).bit_length() <= _REDUCE_BITS + 2


def test_translation(deep):
    kind, t, _, value = deep
    to_inv, to_div = call(div_to_inv, t), call(inv_to_div, t)
    if kind == "inv":
        assert isinstance(to_inv, MixedSignature)
        assert eval_total(to_div, {"x": TWO}) == value
    elif kind == "div":
        assert isinstance(to_div, MixedSignature)
        assert eval_total(to_inv, {"x": TWO}) == value
    else:
        assert to_inv == to_div == t


def test_normal_forms(deep):
    kind, t, sig, value = deep
    full = SignatureId.DMD if kind == "div" else SignatureId.IMD
    results = [call(f, t) for f in (zero_elim, poly_normal, split_inverse)]
    results += [call(closed_normal, t, s) for s in (SignatureId.IAMD, SignatureId.IAMDZ, full)]
    zero_free, poly, split, closed_iamd, closed_iamdz, closed_full = results
    if kind in ("neg", "div"):
        assert all(isinstance(r, NotInSignature) for r in results[:5])
        assert isinstance(closed_full, NotClosed)
        return
    assert zero_free == t
    if kind == "numeral":
        assert poly == PosPoly.constant(DEPTH)
        assert closed_iamd == closed_iamdz == closed_full == Fraction(DEPTH, 1)
    else:
        assert all(isinstance(r, NotClosed) for r in results[3:])
    if kind == "power":
        assert poly == PosPoly({(("x", DEPTH),): 1})
    if kind == "inv":
        assert isinstance(poly, ContainsInverse)
    assert split.numerator.evaluate({"x": TWO}) == value * split.denominator.evaluate({"x": TWO})


@pytest.mark.parametrize("kind", KINDS)
def test_decision_procedures(kind):
    t, sig, value = deep_term(kind, DECIDE_DEPTH)
    copy = deep_term(kind, DECIDE_DEPTH)[0]
    procedures = [
        (SignatureId.IAMD, lambda: decide_iamd(t, copy)),
        (SignatureId.IAMDZ, lambda: decide_iamdz_gil(t, copy)),
        (SignatureId.DAMD, lambda: decide_divisive(t, copy, TheoryId.DAMD)),
    ]
    # Without a division the divisive GIL decision repeats decide_iamdz_gil.
    if kind == "div":
        procedures.append((SignatureId.DAMDZ, lambda: decide_divisive(t, copy, TheoryId.RATDAZ_GIL)))
    for admits, procedure in procedures:
        result = call(procedure)
        if conforms(t, admits):
            assert result.verdict is True
        else:
            assert isinstance(result, NotInSignature)
    closed = call(decide_closed, t, copy, sig)
    if kind == "numeral":
        assert closed.verdict is True
    else:
        assert isinstance(closed, NotClosed)
    if sig is SignatureId.IAMD:
        refuted = decide_iamd(t, Add(copy, ONE))
        assert refuted.verdict is False
        cx = refuted.evidence
        assert cx.lhs_value == eval_total(t, cx.assignment) != cx.rhs_value


def test_deep_false_equation_is_refuted_before_expansion(monkeypatch):
    import meadows.decide

    def split_inverse(*args):
        raise AssertionError("a side was expanded")

    monkeypatch.setattr(meadows.decide, "split_inverse", split_inverse)
    n = DECIDE_DEPTH
    d = decide_iamd(numeral(n), numeral(n + 1))
    assert d == Decision(False, Counterexample({}, Fraction(n), Fraction(n + 1)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.startswith("error:")
    return code, out


def test_cli_subcommands(deep, capsys):
    kind, t, sig, value = deep
    text = render(t)
    code, out = run_cli(capsys, "parse", "--", text)
    assert (code, out) == (0, text + "\n")
    assert run_cli(capsys, "parse", "--format", "structured", "--", text)[0] == 2
    code, out = run_cli(capsys, "eval", "--assign", "x=2", "--", text)
    assert (code, out) == (0, f"{value}\n")
    code, out = run_cli(capsys, "eval", "--assign", "x=2", "--punch", "inv0", "--", text)
    assert (code, out) == ((0, f"{value}\n") if conforms(t, SignatureId.IAMDZ) else (2, ""))
    code, out = run_cli(capsys, "normalize", "--sig", "damd", "--", text)
    if kind == "numeral":
        assert (code, out) == (0, f"{DEPTH}\n")
    assert run_cli(capsys, "defined", "--", text)[0] == (2 if kind in ("neg", "div") else 0)
    run_cli(capsys, "translate", "--to", "inv", "--", text)
    run_cli(capsys, "translate", "--to", "div", "--format", "structured", "--", text)
    short = render(deep_term(kind, DECIDE_DEPTH)[0])
    theory = {"numeral": "closed:iamd", "div": "damd"}.get(kind, "iamd")
    code, _ = run_cli(capsys, "decide", "--theory", theory, "--", short, short)
    assert code == (2 if kind == "neg" else 0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(" * DEPTH + "x" + ")" * DEPTH, X),
        ("inv(" * DEPTH + "x" + ")" * DEPTH, deep_term("inv", DEPTH)[0]),
        ("-" * DEPTH + "x", deep_term("neg", DEPTH)[0]),
    ],
    ids=["parentheses", "inv", "negation"],
)
def test_deeply_nested_input_parses(text, expected, capsys):
    assert parse_term(text) == expected
    code, out = run_cli(capsys, "parse", "--", text)
    assert (code, out) == (0, render(expected) + "\n")


def test_deep_json_documents_are_refused():
    text = '{"op": "neg", "args": [' * DEPTH + '{"op": "one"}' + "]}" * DEPTH
    assert isinstance(call(deserialize, text), SchemaError)


def test_cold_cli_start_on_a_deep_numeral():
    src = Path(meadows.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "meadows.cli", "eval", str(DEPTH)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{DEPTH}\n", "")
