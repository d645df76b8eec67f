"""Tests for parsing, printing, and serialization."""

import json
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    Add,
    Div,
    Inv,
    Mul,
    Neg,
    NumeralStyle,
    ONE,
    ParseError,
    SchemaError,
    SignatureId,
    Var,
    ZERO,
    deserialize,
    numeral,
    parse,
    parse_term,
    power,
    render,
    serialize,
    term_from_dict,
    term_to_dict,
)
from termgen import random_term

X = Var("x")
Y = Var("y")
Z = Var("z")


class TestParse:
    def test_inverse_law_input(self):
        assert parse_term("x * x^-1") == Mul(X, Inv(X))

    def test_sum_of_squares(self):
        squares = Add(Add(ONE, power(X, 2)), power(Y, 2))
        got = parse_term("(1 + x^2 + y^2) * (1 + x^2 + y^2)^-1")
        assert got == Mul(squares, Inv(squares))

    def test_division_by_zero_literal(self):
        assert parse_term("3 / 0") == Div(numeral(3), ZERO)

    def test_precedence(self):
        assert parse_term("x + y * z") == Add(X, Mul(Y, Z))
        assert parse_term("x * y + z") == Add(Mul(X, Y), Z)
        assert parse_term("-x^-1") == Neg(Inv(X))
        assert parse_term("-x * y") == Mul(Neg(X), Y)

    def test_left_associativity(self):
        assert parse_term("x / y / z") == Div(Div(X, Y), Z)
        assert parse_term("x / y * z") == Mul(Div(X, Y), Z)
        assert parse_term("x * y / z") == Div(Mul(X, Y), Z)
        assert parse_term("x + y + z") == Add(Add(X, Y), Z)

    def test_function_form_of_inverse(self):
        assert parse_term("inv(x + y)") == Inv(Add(X, Y))
        assert parse_term("inv(inv(x))") == Inv(Inv(X))

    def test_exponent_sugar(self):
        assert parse_term("x^2") == power(X, 2)
        assert parse_term("(x + y)^3") == power(Add(X, Y), 3)
        assert parse_term("x^-1^-1") == Inv(Inv(X))

    def test_naturals_expand_to_numerals(self):
        assert parse_term("0") == ZERO
        assert parse_term("1") == ONE
        assert parse_term("4") == numeral(4)
        assert parse_term("12") == numeral(12)

    def test_prefix_minus(self):
        assert parse_term("x + -y") == Add(X, Neg(Y))
        assert parse_term("--x") == Neg(Neg(X))

    def test_identifiers(self):
        assert parse_term("velocity_2") == Var("velocity_2")

    def test_parsed_input_carries_source_and_span(self):
        result = parse("x + y")
        assert result.term == Add(X, Y)
        assert result.source == "x + y"
        assert result.span.start_line == 1
        assert result.span.start_column == 1


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_unknown_character(self):
        with pytest.raises(ParseError) as info:
            parse("x @ y")
        assert (info.value.line, info.value.column) == (1, 3)

    def test_uppercase_identifier(self):
        with pytest.raises(ParseError):
            parse("X")

    def test_no_binary_minus(self):
        with pytest.raises(ParseError):
            parse("x - y")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("x +")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as info:
            parse("x y")
        assert info.value.column == 3

    def test_error_position_spans_lines(self):
        with pytest.raises(ParseError) as info:
            parse("x +\n@")
        assert (info.value.line, info.value.column) == (2, 1)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(x + y")

    def test_bare_inv_is_reserved(self):
        with pytest.raises(ParseError):
            parse("inv")
        with pytest.raises(ParseError):
            parse("inv + 1")

    def test_unsupported_exponent(self):
        with pytest.raises(ParseError):
            parse("x^-2")
        with pytest.raises(ParseError):
            parse("x^y")

    @pytest.mark.parametrize(
        "text, column",
        [("((x^100)^100)^100", 15), ("((x^1000)^1000)^1000", 11), ("999999999", 1), ("9" * 5000, 1)],
    )
    def test_expansion_past_the_budget(self, text: str, column: int):
        # Powers share their base, so these build few objects; their trees
        # have 2 * 10^6 to 2 * 10^9 nodes, and the numerals 10^9 or more.
        with pytest.raises(ParseError, match="expands past") as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_expansion_budget_is_per_input(self):
        # x^499 takes 998 nodes, its 999th power 999 * 1000, and each 1 two.
        assert parse("(x^499)^999 + 1").term == Add(power(power(Var("x"), 499), 999), ONE)
        with pytest.raises(ParseError) as info:
            parse("(x^499)^999 + 1 + 1")
        assert info.value.column == 19
        assert parse_term("x^0000002") == power(Var("x"), 2)

    def test_exponent_is_priced_without_walking_its_base(self, monkeypatch):
        import meadows.terms

        def no_walk(t):
            raise AssertionError("the parser walked a term")

        text = "(x^499999)^1"
        with monkeypatch.context() as patched:
            patched.setattr(meadows.terms, "nodes", no_walk)
            with pytest.raises(ParseError, match="exponent expands past 1000000") as info:
                parse(text)
            small = parse("-(x + 2 / y)^3 * inv(0 + z)^2^2").term
        assert (info.value.line, info.value.column) == (1, 12)
        assert small == Mul(
            Neg(power(Add(X, Div(numeral(2), Y)), 3)), power(power(Inv(Add(ZERO, Z)), 2), 2)
        )

    def test_exponent_price_uses_the_base_size(self, monkeypatch):
        import meadows.syntax
        from meadows.terms import term_size

        priced = []
        parse_exponent = meadows.syntax._Parser.parse_exponent

        def recorded(parser, base, size):
            priced.append((base, size))
            return parse_exponent(parser, base, size)

        monkeypatch.setattr(meadows.syntax._Parser, "parse_exponent", recorded)
        rng = random.Random(7)
        for sig in [SignatureId.CR, SignatureId.IMD, SignatureId.DMD] * 20:
            bases = [render(random_term(rng, sig, 12, ("x", "y"))) for _ in range(3)]
            parse(" * ".join(f"({b})^{rng.randint(0, 3)}" for b in bases))
        assert len(priced) >= 180
        assert all(size == term_size(base) for base, size in priced)


# Texts of tokens, the four blanks and characters no token covers ("_" only
# continues an identifier), and sums of operands padded with blanks, which parse.
_BLANK = st.text(alphabet=" \t\r\n", max_size=3)
_LEXEME = st.sampled_from(
    ["x", "y1", "a_b", "inv", "0", "7", "12", "99999999"]
    + ["(", ")", "+", "*", "/", "^", "-", "^-1", "^2"]
)
_STRAY = st.sampled_from(["\f", "\v", "X", "\u00e9", "@", "\u00a0", "_"])
_PIECES = st.lists(st.one_of(_LEXEME, _BLANK, _STRAY), max_size=16).map("".join)
_TOKENS = st.lists(st.one_of(_LEXEME, _BLANK), max_size=16).map("".join)
_SUM = st.lists(
    st.tuples(_BLANK, st.sampled_from(["x", "(y)", "inv(z)", "2^3", "-a_1"]), _BLANK).map("".join),
    min_size=1,
    max_size=5,
).map("+".join)


def lexical_oracle(text: str) -> tuple[list, list[int], list[int], int | None]:
    """Each offset's (line, column), counted character by character; the start
    and end offsets of the tokens; and the offset of the first character no
    token covers, if any, where the scan stops."""
    positions, line, column = [], 1, 1
    for ch in text:
        positions.append((line, column))
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    positions.append((line, column))
    word, digits = string.ascii_lowercase + string.digits + "_", string.digits
    starts, ends, run = [], [], ""  # run: the characters that continue the token
    for i, ch in enumerate(text):
        if ch in run:
            ends[-1] = i + 1
            continue
        run = word if ch in string.ascii_lowercase else digits if ch in digits else ""
        if ch in " \t\r\n":
            continue
        if not run and ch not in "()+*/^-":
            return positions, starts, ends, i
        starts.append(i)
        ends.append(i + 1)
    return positions, starts, ends, None


@given(st.one_of(_PIECES, _TOKENS, _SUM))
@settings(max_examples=400, deadline=None)
def test_positions_match_a_character_walk(text: str):
    positions, starts, ends, uncovered = lexical_oracle(text)
    try:
        span = parse(text).span
    except ParseError as exc:
        where = (exc.line, exc.column)
        if uncovered is not None:
            line, column = positions[uncovered]
            message = f"unexpected character {text[uncovered]!r} (line {line}, column {column})"
            assert (str(exc), where) == (message, (line, column))
        else:
            end = positions[ends[-1]] if ends else (1, 1)
            assert where in {positions[i] for i in starts} | {end}
        return
    assert uncovered is None
    first = next(i for i, ch in enumerate(text) if ch not in " \t\r\n")
    last = max(i for i, ch in enumerate(text) if ch not in " \t\r\n")
    line, column = positions[last]
    assert span == (*positions[first], line, column + 1)


class TestRender:
    def test_numeral_collapsing_modes(self):
        t = Mul(Add(ONE, ONE), Inv(X))
        assert render(t) == "2 * x^-1"
        assert render(t, NumeralStyle.STRUCTURAL) == "(1 + 1) * x^-1"

    def test_zero(self):
        assert render(ZERO) == "0"

    def test_division_parentheses(self):
        assert render(Div(X, Add(Y, ONE))) == "x / (y + 1)"

    def test_minimal_parentheses(self):
        assert render(Add(X, Mul(Y, Z))) == "x + y * z"
        assert render(Mul(Add(X, Y), Z)) == "(x + y) * z"
        assert render(Add(Add(X, Y), Z)) == "x + y + z"
        assert render(Add(X, Add(Y, Z))) == "x + (y + z)"

    def test_inverse_of_compound(self):
        assert render(Inv(Add(X, Y))) == "(x + y)^-1"
        assert render(Inv(Neg(X))) == "(-x)^-1"
        assert render(Neg(Inv(X))) == "-x^-1"

    def test_powers_collapse(self):
        assert render(power(X, 2)) == "x^2"
        assert render(power(Add(X, ONE), 3), NumeralStyle.STRUCTURAL) == "(x + 1)^3"

    def test_numerals(self):
        assert render(numeral(7)) == "7"
        assert render(numeral(7), NumeralStyle.STRUCTURAL) == "1 + 1 + 1 + 1 + 1 + 1 + 1"

    @given(st.integers(0, 5000), st.sampled_from(list(SignatureId)))
    @settings(max_examples=250, deadline=None)
    def test_parse_render_round_trip(self, seed: int, sig: SignatureId):
        rng = random.Random(seed)
        t = random_term(rng, sig, max_size=18, variables=("x", "y", "z"))
        assert parse_term(render(t)) == t
        assert parse_term(render(t, NumeralStyle.STRUCTURAL)) == t

    @given(st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_render_stays_inside_the_grammar(self, seed: int):
        rng = random.Random(seed)
        sig = rng.choice(list(SignatureId))
        t = random_term(rng, sig, max_size=18, variables=("x", "y"))
        for style in NumeralStyle:
            assert re.fullmatch(r"[a-z0-9_()+*/^\s-]+", render(t, style))


class TestSerialization:
    def test_one(self):
        assert json.loads(serialize(ONE)) == {"op": "one"}

    def test_schema_shape(self):
        assert term_to_dict(Var("x")) == {"op": "var", "name": "x"}
        assert term_to_dict(Inv(ZERO)) == {"op": "inv", "args": [{"op": "zero"}]}
        assert term_to_dict(Add(ONE, ZERO)) == {
            "op": "add",
            "args": [{"op": "one"}, {"op": "zero"}],
        }

    @given(st.integers(0, 5000), st.sampled_from(list(SignatureId)))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, seed: int, sig: SignatureId):
        rng = random.Random(seed)
        t = random_term(rng, sig, max_size=18, variables=("x", "y"))
        assert deserialize(serialize(t)) == t
        assert term_from_dict(term_to_dict(t)) == t

    def test_unknown_op(self):
        with pytest.raises(SchemaError):
            term_from_dict({"op": "sub", "args": [{"op": "one"}, {"op": "one"}]})

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            deserialize("not json at all {")

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            deserialize("[1, 2, 3]")

    def test_missing_variable_name(self):
        with pytest.raises(SchemaError):
            term_from_dict({"op": "var"})

    def test_invalid_variable_name(self):
        with pytest.raises(SchemaError):
            term_from_dict({"op": "var", "name": "X"})
        with pytest.raises(SchemaError):
            term_from_dict({"op": "var", "name": "inv"})

    def test_wrong_arity(self):
        with pytest.raises(SchemaError):
            term_from_dict({"op": "add", "args": [{"op": "one"}]})
        with pytest.raises(SchemaError):
            term_from_dict({"op": "inv", "args": []})

    def test_missing_args(self):
        with pytest.raises(SchemaError):
            term_from_dict({"op": "mul"})
