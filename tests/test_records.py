"""The result records: immutable values with keyword constructors and plain reprs."""

from fractions import Fraction

import pytest

from meadows import UNDEFINED, Undefined
from meadows.decide import Counterexample, Decision, MatchedNormals
from meadows.syntax import Span
from meadows.terms import ONE, Inv, Mul, SignatureId, Var
from meadows.theories import AxiomCheck, ConditionalLaw, Equation, Theory, TheoryId, Witness

X, Y = Var("x"), Var("y")


@pytest.mark.parametrize(
    "make",
    [
        lambda label: Equation(Mul(X, Y), Mul(Y, X), label),
        lambda label: ConditionalLaw(X, Mul(X, Inv(X)), ONE, label),
    ],
    ids=["equation", "conditional"],
)
def test_laws_compare_and_hash_without_label(make):
    a, b = make("a"), make("b")
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a.label == "a"


def test_laws_differ_by_their_terms():
    assert Equation(X, Y) != Equation(Y, X)
    assert ConditionalLaw(Y, X, X) != ConditionalLaw(X, X, X)
    assert Equation(X, Y) != ConditionalLaw(X, X, Y)


@pytest.mark.parametrize(
    "record, field",
    [
        (Decision(True, MatchedNormals(Fraction(1), Fraction(1))), "verdict"),
        (Span(1, 1, 1, 2), "end_column"),
        (UNDEFINED, "value"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_keyword_construction_and_defaults():
    th = Theory(id=TheoryId.ACR, signature=SignatureId.IAMD, equations=())
    assert th.conditional is None
    assert th == Theory(TheoryId.ACR, SignatureId.IAMD, ())
    check = AxiomCheck(label="l", rendered="x = x", ok=True)
    assert check.witness is None
    witness = Witness({"x": Fraction(0)}, Fraction(0), Fraction(1))
    assert AxiomCheck("l", "x = 1", ok=False, witness=witness).witness is witness
    assert Equation(X, X).label == ""


def test_reprs():
    assert repr(Span(1, 1, 1, 2)) == "Span(start_line=1, start_column=1, end_line=1, end_column=2)"
    example = Counterexample({"x": Fraction(1)}, Fraction(2), Fraction(1, 2))
    assert repr(example) == (
        "Counterexample(assignment={'x': Fraction(1, 1)}, "
        "lhs_value=Fraction(2, 1), rhs_value=Fraction(1, 2))"
    )
    assert repr(UNDEFINED) == "Undefined()"


def test_undefined_is_one_truthy_value():
    assert UNDEFINED
    assert Undefined() == UNDEFINED
    assert not Undefined() != UNDEFINED
    assert hash(Undefined()) == hash(UNDEFINED)
    assert UNDEFINED != ()
