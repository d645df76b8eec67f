"""Tests for the command-line interface, driven through main()."""

import argparse
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meadows
from meadows.cli import EXIT_ERROR, EXIT_FALSE, EXIT_OK, EXIT_UNDEFINED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_echoes_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", "x *   x^-1")
        assert code == EXIT_OK
        assert out == "x * x^-1\n"

    def test_conformance_accept(self, capsys):
        code, _, _ = run(capsys, "parse", "x + 0", "--sig", "iamdz")
        assert code == EXIT_OK

    def test_conformance_reject(self, capsys):
        code, _, err = run(capsys, "parse", "x + 0", "--sig", "iamd")
        assert code == EXIT_ERROR
        assert "does not conform" in err

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "parse", "x +")
        assert code == EXIT_ERROR
        assert err.count("line 1, column 4") == 1

    def test_structural_numerals(self, capsys):
        code, out, _ = run(capsys, "parse", "4", "--numerals", "structural")
        assert code == EXIT_OK
        assert out == "1 + 1 + 1 + 1\n"

    def test_structured_output(self, capsys):
        code, out, _ = run(capsys, "parse", "2 * x", "--format", "structured")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rendered"] == "2 * x"
        assert doc["term"]["op"] == "mul"


class TestNormalizeCommand:
    def test_closed_fraction(self, capsys):
        code, out, _ = run(capsys, "normalize", "2 * 4^-1", "--sig", "iamd")
        assert code == EXIT_OK
        assert out == "1/2\n"

    def test_closed_zero(self, capsys):
        code, out, _ = run(capsys, "normalize", "0^-1", "--sig", "iamdz")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_closed_negative(self, capsys):
        code, out, _ = run(capsys, "normalize", "-(2 * 4^-1)", "--sig", "imd")
        assert code == EXIT_OK
        assert out == "-1/2\n"

    def test_closed_divisive_vanishing_divisor(self, capsys):
        code, out, _ = run(capsys, "normalize", "1 / (1 + -1)", "--sig", "dmd")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_open_polynomial_fraction(self, capsys):
        code, out, _ = run(capsys, "normalize", "x + y^-1", "--sig", "iamd")
        assert code == EXIT_OK
        assert out == "(x*y + 1) / (y)\n"

    def test_open_zero_elimination(self, capsys):
        code, out, _ = run(capsys, "normalize", "x + 0 * y", "--sig", "iamdz")
        assert code == EXIT_OK
        assert out == "(x) / (1)\n"

    def test_open_all_zero(self, capsys):
        code, out, _ = run(capsys, "normalize", "0 * x", "--sig", "iamdz")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_open_divisive(self, capsys):
        code, out, _ = run(capsys, "normalize", "x / y", "--sig", "damd")
        assert code == EXIT_OK
        assert out == "(x) / (y)\n"

    def test_no_open_form_for_full_meadows(self, capsys):
        # "--" lets expressions starting with a minus through argparse.
        code, _, err = run(capsys, "normalize", "--sig", "imd", "--", "-x")
        assert code == EXIT_ERROR
        assert "no open-term normal form" in err

    @pytest.mark.parametrize(
        "sig, expr",
        [("damd", "-1"), ("damd", "1/0"), ("imd", "1/2"), ("dmd", "2^-1"), ("damd", "x^-1")],
    )
    def test_term_outside_signature(self, capsys, sig, expr):
        code, out, err = run(capsys, "normalize", "--sig", sig, "--", expr)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: term does not conform to the {sig} signature\n"

    def test_monomial_guardrail(self, capsys):
        code, _, err = run(
            capsys, "normalize", "(x + 1)^12", "--sig", "iamd", "--max-monomials", "10"
        )
        assert code == EXIT_ERROR
        assert "monomial" in err

    def test_structured_fraction(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "2 * 4^-1", "--sig", "iamd", "--format", "structured"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"kind": "fraction", "numerator": 1, "denominator": 2}

    def test_structured_poly_fraction(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "x + y^-1", "--sig", "iamd", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["kind"] == "poly-fraction"
        assert doc["numerator"] == "x*y + 1"
        assert doc["denominator"] == "y"


class TestEvalCommand:
    def test_closed_value(self, capsys):
        code, out, _ = run(capsys, "eval", "1 + 2^-1")
        assert code == EXIT_OK
        assert out == "3/2\n"

    def test_assignment(self, capsys):
        code, out, _ = run(capsys, "eval", "x * y", "--assign", "x=1/2,y=3")
        assert code == EXIT_OK
        assert out == "3/2\n"

    def test_zero_totalized_division(self, capsys):
        code, out, _ = run(capsys, "eval", "3 / 0")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_carrier_rejects_value(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--assign", "x=-1", "--carrier", "nonneg")
        assert code == EXIT_ERROR
        assert "error" in err

    def test_numeral_past_the_parse_budget(self, capsys):
        code, out, err = run(capsys, "eval", "999999999")
        assert code == EXIT_ERROR == 2
        assert out == ""
        assert "expands past" in err

    def test_punched_undefined(self, capsys):
        code, out, _ = run(capsys, "eval", "0^-1", "--punch", "inv0")
        assert code == EXIT_UNDEFINED
        assert out == "undefined\n"

    def test_punched_defined(self, capsys):
        code, out, _ = run(capsys, "eval", "0 / 0", "--punch", "divnz0")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_strong_punch_diverges(self, capsys):
        code, out, _ = run(capsys, "eval", "0 / 0", "--punch", "divall0")
        assert code == EXIT_UNDEFINED
        assert out == "undefined\n"

    def test_unbound_variable(self, capsys):
        code, _, err = run(capsys, "eval", "x")
        assert code == EXIT_ERROR
        assert "error" in err

    def test_structured_undefined(self, capsys):
        code, out, _ = run(capsys, "eval", "0^-1", "--punch", "inv0", "--format", "structured")
        assert code == EXIT_UNDEFINED
        assert json.loads(out) == {"defined": False, "value": None}

    def test_bad_assignment_syntax(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--assign", "x:1")
        assert code == EXIT_ERROR
        assert "expected name=value" in err

    @pytest.mark.parametrize(
        "assign, complaint",
        [
            ("x=1,x=2", "'x=2'; x is already assigned"),
            ("=1", "'=1'; '' is not a variable name"),
            ("X=1", "'X=1'; 'X' is not a variable name"),
            ("x=1,inv=2", "'inv=2'; 'inv' is not a variable name"),
        ],
        ids=["repeated", "empty", "upper-case", "reserved"],
    )
    def test_bad_assignment_name(self, capsys, assign, complaint):
        code, out, err = run(capsys, "eval", "x", "--assign", assign)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: bad assignment {complaint}\n"


class TestDecideCommand:
    def test_true_verdict(self, capsys):
        code, out, _ = run(capsys, "decide", "x * x^-1", "1", "--theory", "iamd")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "true"
        assert lines[1].startswith("matched normals:")

    def test_false_verdict_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "decide", "x * x^-1", "1", "--theory", "ratiaz-gil")
        assert code == EXIT_FALSE
        lines = out.splitlines()
        assert lines[0] == "false"
        assert "counterexample" in lines[1]
        assert "x = 0" in lines[1]

    def test_divisive_theory(self, capsys):
        code, out, _ = run(capsys, "decide", "x / x", "1", "--theory", "damd")
        assert code == EXIT_OK

    def test_divisive_gil_theory(self, capsys):
        code, _, _ = run(capsys, "decide", "1 / (1 / x)", "x", "--theory", "ratdaz-gil")
        assert code == EXIT_OK

    def test_closed_decision(self, capsys):
        code, _, _ = run(capsys, "decide", "2 * 3^-1", "4 * 6^-1", "--theory", "closed:iamd")
        assert code == EXIT_OK

    def test_closed_false(self, capsys):
        code, out, _ = run(capsys, "decide", "0^-1", "1", "--theory", "closed:iamdz")
        assert code == EXIT_FALSE
        assert "distinct normals" in out

    def test_case_split_evidence(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            "(x * (x + y)) * (x * (x + y))^-1",
            "x * x^-1",
            "--theory",
            "ratiaz-gil",
        )
        assert code == EXIT_OK
        assert "case split" in out

    def test_structured_case_split(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            "(x * (x + y)) * (x * (x + y))^-1",
            "x * x^-1",
            "--theory",
            "ratiaz-gil",
            "--format",
            "structured",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["evidence"]["kind"] == "case-split"
        steps = doc["evidence"]["steps"]
        # y = 0 makes no inverted argument vanish, so it is no case of its own.
        assert [step["case"] for step in steps] == ["all variables nonzero", "x = 0"]
        assert "y = 0" not in [step["case"] for step in steps]
        assert steps[1]["evidence"] == {"kind": "normals", "lhs": "0", "rhs": "0"}
        assert all(step["evidence"]["kind"] == "normals" for step in steps)

    # Equal with each inverse an opaque atom; a variable may be named like
    # an internal atom, yet the atoms render as the inverses they stand for.
    ATOM_PAIR = (
        "(i0_ + y)^-1 * (i0_ * i0_^-1 + y)",
        "i0_^-1 * i0_ * (y + i0_)^-1 + y * (y + i0_)^-1",
    )
    ATOM_NORMAL = "(i0_ + y)^-1*i0_*i0_^-1 + (i0_ + y)^-1*y"

    def test_atom_evidence(self, capsys):
        code, out, _ = run(capsys, "decide", *self.ATOM_PAIR, "--theory", "ratiaz-gil")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "true",
            f"matched normals: {self.ATOM_NORMAL}  vs  {self.ATOM_NORMAL}",
        ]

    def test_structured_atom_evidence(self, capsys):
        code, out, _ = run(
            capsys, "decide", *self.ATOM_PAIR, "--theory", "ratiaz-gil", "--format", "structured"
        )
        assert code == EXIT_OK
        evidence = json.loads(out)["evidence"]
        assert evidence == {"kind": "normals", "lhs": self.ATOM_NORMAL, "rhs": self.ATOM_NORMAL}
        # The normals parse back to terms over the input's own variables.
        for side in ("lhs", "rhs"):
            assert meadows.free_vars(meadows.parse(evidence[side]).term) == ("i0_", "y")

    def test_structured_verdict(self, capsys):
        code, out, _ = run(
            capsys, "decide", "x", "y", "--theory", "iamd", "--format", "structured"
        )
        assert code == EXIT_FALSE
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["evidence"]["kind"] == "counterexample"
        assert set(doc["evidence"]["assignment"]) == {"x", "y"}

    def test_unknown_theory_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["decide", "x", "x", "--theory", "nope"])
        assert info.value.code == 2

    def test_signature_error(self, capsys):
        code, _, err = run(capsys, "decide", "--theory", "iamd", "--", "-x", "x")
        assert code == EXIT_ERROR
        assert "error" in err


class TestDefinedCommand:
    def test_nonzero(self, capsys):
        code, out, _ = run(capsys, "defined", "2^-1")
        assert (code, out) == (EXIT_OK, "nz\n")

    def test_defined_only(self, capsys):
        code, out, _ = run(capsys, "defined", "0 * x")
        assert (code, out) == (EXIT_OK, "def\n")

    def test_outside(self, capsys):
        code, out, _ = run(capsys, "defined", "0^-1")
        assert (code, out) == (EXIT_OK, "outside\n")

    def test_rejects_divisive_terms(self, capsys):
        code, _, err = run(capsys, "defined", "x / y")
        assert code == EXIT_ERROR


class TestTranslateCommand:
    def test_to_inversive(self, capsys):
        code, out, _ = run(capsys, "translate", "x / y", "--to", "inv")
        assert code == EXIT_OK
        assert out == "x * y^-1\n"

    def test_to_divisive(self, capsys):
        code, out, _ = run(capsys, "translate", "inv(x)", "--to", "div")
        assert code == EXIT_OK
        assert out == "1 / x\n"

    def test_mixed_signature(self, capsys):
        code, _, err = run(capsys, "translate", "x^-1", "--to", "inv")
        assert code == EXIT_ERROR
        assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "x", "--numerals", "structural"],
        ["decide", "x", "x", "--theory", "iamd", "--seed", "1"],
        ["defined", "x", "--max-monomials", "5"],
        ["decide", "1", "1", "--theory", "closed:iamd", "--max-monomials", "5"],
        ["eval", "x", "--punch", "inv0", "--carrier", "pos", "--assign", "x=0"],
    ],
)
def test_option_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: meadows {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--theory", "iamd", "--max-monomials", "-3", "x", "x"],
        ["decide", "--theory", "ratiaz-gil", "--max-monomials", "0", "x", "x"],
        ["normalize", "x + 1", "--sig", "iamd", "--max-monomials", "0"],
        ["normalize", "x + 1", "--sig", "iamd", "--max-monomials", "many"],
    ],
)
def test_monomial_bound_below_one_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_positional_of_only_a_trailing_separator(capsys):
    # argparse 3.10 to 3.13.0 leaves rhs as [], a missing argument; a version
    # that passes the text "--" gets a parse error after its two '-'.
    try:
        code = main(["decide", "--theory", "iamd", "--", "0", "--"])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("usage: meadows decide ") or "(line 1, column 3)" in err
    assert "Traceback" not in err


# Raw text mostly stops at the tokenizer.  Token-shaped text joins pieces of
# the grammar, with or without spaces, and reaches the parser; well-formed
# text reaches the commands.  Three variable letters keep the GIL split small.
_TOKENS = [
    "x", "y", "z", "inv", "0", "1", "2", "10", "+", "*", "/", "-", "^", "^-1", "^2", "(", ")",
]
_WELL_FORMED = st.recursive(
    st.sampled_from(["x", "y", "z", "0", "1", "2"]),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from(["+", "*", "/"]), inner),
        st.builds("-{}".format, inner),
        st.builds("{}^{}".format, inner, st.sampled_from(["-1", "0", "2"])),
        st.builds("inv({})".format, inner),
    ),
    max_leaves=8,
)
_TEXT = st.one_of(
    st.text(max_size=12),
    st.builds(
        str.join, st.sampled_from(["", " "]), st.lists(st.sampled_from(_TOKENS), max_size=14)
    ),
    _WELL_FORMED,
)
_OPTIONS = {
    "parse": [[], ["--sig", "iamdz"], ["--sig", "cr"], ["--numerals", "structural"]],
    "normalize": [["--sig", sig] for sig in ("iamd", "iamdz", "imd", "dmd", "damd", "damdz")]
    + [["--sig", "iamdz", "--max-monomials", "2"]],
    "eval": [[], ["--carrier", "pos"], ["--carrier", "nonneg"]]
    + [["--punch", punch] for punch in ("inv0", "divall0", "divnz0")],
    "decide": [["--theory", theory] for theory in ("iamd", "damd", "ratiaz-gil", "ratdaz-gil")]
    + [["--theory", "closed:iamdz"], ["--theory", "closed:dmd"]]
    + [["--theory", "ratiaz-gil", "--max-monomials", "3"]],
    "defined": [[]],
    "translate": [["--to", "inv"], ["--to", "div"]],
}


@st.composite
def cli_argv(draw) -> list[str]:
    """An argument list for one subcommand with random expression text."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command, *draw(st.sampled_from(_OPTIONS[command]))]
    argv += draw(st.sampled_from([[], ["--format", "structured"]]))
    if command == "eval":
        assign = st.sampled_from(["x=1,y=0", "x=-1/2", "z=3/0", "x=1,x=2"])
        argv += ["--assign", draw(st.one_of(assign, _TEXT))]
    if draw(st.booleans()):
        argv.append("--")  # else a text that starts with '-' reads as an option
    return argv + [draw(_TEXT) for _ in range(2 if command == "decide" else 1)]


def outcome(argv: list[str]) -> tuple[object, str, str]:
    """The exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(cli_argv())
@example(["decide", "--theory", "iamd", "--", "0", "--"])
@settings(max_examples=300, deadline=None)
def test_any_text_gets_an_exit_code(argv: list[str]):
    code, _, err = outcome(argv)
    assert code in (EXIT_OK, EXIT_FALSE, EXIT_ERROR, EXIT_UNDEFINED), (argv, err)
    assert "Traceback" not in err


class TestParserBuiltOnce:
    """``main`` builds its argument parser once per process and reuses it."""

    # Usage errors, help and the lone trailing '--', checked in a fresh process too.
    UNUSUAL = [
        ["--help"],
        ["decide", "--help"],
        ["decide", "x", "x", "--theory", "nope"],
        ["eval", "x", "--carrier", "pos", "--punch", "inv0"],
        ["normalize", "x"],
        ["parse", "x", "--bogus"],
        ["decide", "1", "1", "--theory", "closed:iamd", "--max-monomials", "5"],
        ["decide", "--theory", "iamd", "--", "0", "--"],
        [],
    ]
    # Each subcommand in text and structured form, then the argv above.
    ARGV = [
        [command, *args, *fmt]
        for command, args in [
            ("parse", ["x * inv(x)", "--sig", "iamd"]),
            ("normalize", ["x + y^-1", "--sig", "iamd", "--max-monomials", "9"]),
            ("eval", ["x * y", "--assign", "x=2/3,y=6", "--carrier", "pos"]),
            ("decide", ["x * x^-1", "1", "--theory", "ratiaz-gil"]),
            ("defined", ["x + 1"]),
            ("translate", ["x / y", "--to", "inv", "--numerals", "structural"]),
        ]
        for fmt in ([], ["--format", "structured"])
    ] + UNUSUAL

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # Help and usage wrap at the terminal width, which a process whose
        # stdout is a pipe reads from COLUMNS alone.
        monkeypatch.setenv("COLUMNS", "80")

    def test_second_call_builds_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        outcome(["eval", "1 + 2^-1"])
        built.clear()
        outcome(["decide", "x", "x", "--theory", "iamd"])
        assert built == []

    def test_repeated_calls_behave_like_the_first(self):
        first = [outcome(argv) for argv in self.ARGV]
        second = [outcome(argv) for argv in self.ARGV]
        for argv, once, again in zip(self.ARGV, first, second):
            assert again == once, argv

    @pytest.mark.parametrize("argv", UNUSUAL, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_calls_match_a_fresh_process(self, argv):
        src = Path(meadows.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "meadows.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        outcome(argv)  # so that the call compared is a repeated one
        assert outcome(argv) == (done.returncode, done.stdout, done.stderr)


class TestOutputBuiltOnce:
    """Each command builds only the output ``--format`` selects."""

    @pytest.mark.parametrize("fmt", [[], ["--format", "structured"]])
    def test_normalize_renders_each_polynomial_once(self, fmt, capsys, monkeypatch):
        rendered = []
        render = meadows.PosPoly.render
        monkeypatch.setattr(meadows.PosPoly, "render", lambda p: rendered.append(p) or render(p))
        code, out, _ = run(capsys, "normalize", "--sig", "iamd", "x + y^-1", *fmt)
        assert code == EXIT_OK and "x*y + 1" in out
        assert [render(p) for p in rendered] == ["x*y + 1", "y"]

    @pytest.mark.parametrize(
        "argv", [["parse", "x * inv(x)"], ["translate", "--to", "inv", "x / y"]]
    )
    def test_text_builds_no_document(self, argv, capsys, monkeypatch):
        def refuse(term):
            raise AssertionError("term_to_dict called for text output")

        monkeypatch.setattr("meadows.cli.term_to_dict", refuse)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK


def readme_examples() -> list[tuple[list[str], str]]:
    """Each ``$ meadows ...`` line of the README's "Command line" block, as an
    argument list, with the lines printed under it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    examples = []
    for example in block.strip().split("\n\n"):
        command, *output = example.split("\n")
        assert command.startswith("$ meadows "), command
        examples.append((shlex.split(command)[2:], "".join(f"{line}\n" for line in output)))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv, printed", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_command_line_examples(argv, printed, capsys):
    code, out, err = run(capsys, *argv)
    assert (out, err) == (printed, "")
    first_line = printed.split("\n")[0]
    assert code == {"false": EXIT_FALSE, "undefined": EXIT_UNDEFINED}.get(first_line, EXIT_OK)


def test_readme_lists_its_examples():
    assert len(README_EXAMPLES) >= 9


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("meadows")
        assert exe is not None
        done = subprocess.run(
            [exe, "eval", "2 + 2^-1"], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0
        assert done.stdout == "5/2\n"

    def test_import_leaves_out_dataclasses_and_inspect(self):
        src = Path(meadows.__file__).resolve().parent.parent
        # Only the modules that importing meadows.cli adds, not those of site.
        child = (
            "import sys; s = set(sys.modules); import meadows.cli; print(*set(sys.modules) - s)"
        )
        done = subprocess.run(
            [sys.executable, "-c", child],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "meadows.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
