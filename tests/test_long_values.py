"""Values past the interpreter's int-to-str digit limit (4,300 digits by
default) print in full, and the limit itself is left as it is."""

import json
import sys
from fractions import Fraction

import pytest

from meadows import PosPoly, decide_iamd, parse_term
from meadows.cli import EXIT_ERROR, EXIT_FALSE, EXIT_OK, main
from meadows.decide import Counterexample, MatchedNormals

BIG = 2**20000  # 6,021 digits
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def digits(n: int) -> str:
    """Reference decimal text of ``n`` >= 0, converted in chunks of 1,000 digits."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


@pytest.fixture(autouse=True)
def limit_unchanged():
    yield
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == LIMIT


def test_reference_digits():
    assert digits(10**2500 + 7) == "1" + "0" * 2499 + "7"
    assert len(digits(BIG)) == 6021


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


D, D2, D1 = digits(BIG), digits(2 * BIG), digits(BIG + 1)

TEXT = [
    (["eval", "(1+1)^20000"], EXIT_OK, f"{D}\n"),
    (["normalize", "--sig", "iamd", "(1+1)^20000"], EXIT_OK, f"{D}\n"),
    (["normalize", "--sig", "iamd", "(x+1)^2*(1+1)^20000"], EXIT_OK,
     f"({D}*x^2 + {D2}*x + {D}) / (1)\n"),
    (["decide", "--theory", "closed:iamd", "(1+1)^20000", "(1+1)^20000+1"], EXIT_FALSE,
     f"false\ndistinct normals: {D}  vs  {D1}\n"),
    (["decide", "--theory", "iamd", "x*(1+1)^20000", "x"], EXIT_FALSE,
     f"false\ncounterexample: x = 1  gives  {D} != 1\n"),
]


@pytest.mark.parametrize("argv, code, printed", TEXT, ids=[" ".join(a[:2]) for a, _, _ in TEXT])
def test_text_output(capsys, argv, code, printed):
    assert run(capsys, *argv) == (code, printed, "")


STRUCTURED = [
    (["eval", "(1+1)^20000"], EXIT_OK, {"defined": True, "value": D}),
    (["normalize", "--sig", "iamd", "(x+1)^2*(1+1)^20000"], EXIT_OK,
     {"kind": "poly-fraction", "numerator": f"{D}*x^2 + {D2}*x + {D}", "denominator": "1"}),
    (["decide", "--theory", "closed:iamd", "(1+1)^20000", "(1+1)^20000+1"], EXIT_FALSE,
     {"verdict": False, "evidence": {"kind": "normals", "lhs": D, "rhs": D1}}),
    (["decide", "--theory", "iamd", "x*(1+1)^20000", "x"], EXIT_FALSE,
     {"verdict": False, "evidence": {"kind": "counterexample", "assignment": {"x": "1"},
                                     "lhs_value": D, "rhs_value": "1"}}),
]


@pytest.mark.parametrize(
    "argv, code, doc", STRUCTURED, ids=[" ".join(a[:2]) for a, _, _ in STRUCTURED]
)
def test_structured_output(capsys, argv, code, doc):
    got, out, err = run(capsys, *argv, "--format", "structured")
    assert (got, json.loads(out), err) == (code, doc, "")


def test_json_number_past_the_limit_is_a_schema_error(capsys):
    argv = ["normalize", "--sig", "iamd", "(1+1)^20000", "--format", "structured"]
    if not LIMIT:
        pytest.skip("this interpreter has no int-to-str digit limit")
    assert run(capsys, *argv) == (
        EXIT_ERROR, "", "error: result holds an integer too long for the json module\n"
    )


def test_renders():
    poly = PosPoly({(("x", 1),): BIG, (): 3 * BIG})
    assert poly.render() == f"{D}*x + {digits(3 * BIG)}"
    assert MatchedNormals(Fraction(BIG, 3), Fraction(1, BIG)).render() == (
        f"{D}/3  vs  1/{D}"
    )
    refuted = decide_iamd(parse_term("x*(1+1)^20000"), parse_term("x^-1"))
    assert refuted.evidence == Counterexample({"x": Fraction(1)}, Fraction(BIG), Fraction(1))
    counterexample = Counterexample({"x": Fraction(1, BIG)}, Fraction(BIG), Fraction(-BIG, 7))
    assert counterexample.render() == f"x = 1/{D}  gives  {D} != -{D}/7"
