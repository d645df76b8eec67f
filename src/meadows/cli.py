"""Command-line interface.

Subcommands: parse, normalize, eval, decide, defined, translate.
Exit codes: 0 success; 1 a decide verdict of false; 2 usage, parse, or
domain errors; 3 an undefined result when evaluating under a punch.
``main(argv)`` returns the exit code; its calls in one process share one parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .decide import (
    Counterexample,
    Decision,
    MatchedNormals,
    RecursionTrace,
    decide_closed,
    decide_divisive,
    decide_iamd,
    decide_iamdz_gil,
)
from .evaluate import Carrier, eval_total, parse_rational
from .exceptions import MeadowError, NotInSignature, SchemaError
from .normalize import DEFAULT_MAX_MONOMIALS, closed_normal, split_inverse, zero_elim
from .partial import Defined, PunchId, classify_def, eval_punched
from .syntax import NumeralStyle, parse, render, term_to_dict
from .terms import RESERVED_WORDS, VAR_NAME, SignatureId, Term, Zero, conforms, is_closed
from .theories import TheoryId
from .translate import div_to_inv, inv_to_div

_NORMALIZE_SIGS = ("iamd", "iamdz", "imd", "dmd", "damd", "damdz")

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_UNDEFINED = 3


_OPEN_THEORIES = (TheoryId.IAMD, TheoryId.DAMD, TheoryId.RATIAZ_GIL, TheoryId.RATDAZ_GIL)


def _theory(text: str) -> Union[TheoryId, SignatureId]:
    """A theory with an open-term procedure, or for ``closed:SIG`` the signature SIG."""
    if text.startswith("closed:"):
        sig_name = text.removeprefix("closed:")
        for sig in SignatureId:
            if sig.value == sig_name:
                return sig
        raise argparse.ArgumentTypeError(f"unknown signature {sig_name!r} in {text!r}")
    for theory in _OPEN_THEORIES:
        if theory.value == text:
            return theory
    raise argparse.ArgumentTypeError(
        f"{text!r} is not iamd, damd, ratiaz-gil, ratdaz-gil, or closed:SIG"
    )


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _parse_assignment(text: str, carrier: Carrier) -> dict[str, Fraction]:
    env: dict[str, Fraction] = {}
    if not text:
        return env
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad assignment {piece!r}; expected name=value")
        if not VAR_NAME.match(name) or name in RESERVED_WORDS:
            raise ValueError(f"bad assignment {piece!r}; {name!r} is not a variable name")
        if name in env:
            raise ValueError(f"bad assignment {piece!r}; {name} is already assigned")
        env[name] = parse_rational(value.strip(), carrier)
    return env


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser shared by every call in this process, built on the first; do not mutate it."""
    # Each subcommand takes only the options it reads.
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )
    printed = argparse.ArgumentParser(add_help=False, parents=[formatted])
    printed.add_argument(
        "--numerals",
        choices=("structural", "decimal"),
        default="decimal",
        help="print numerals as decimal literals or spelled out",
    )
    bounded = argparse.ArgumentParser(add_help=False, parents=[formatted])
    bounded.add_argument(
        "--max-monomials",
        type=_positive_int,
        metavar="N",
        help=f"abort normalization past this many monomials (default {DEFAULT_MAX_MONOMIALS})",
    )

    top = argparse.ArgumentParser(
        prog="meadows",
        description="Exact arithmetic, normal forms, and equation deciding "
        "for meadow terms (fields with a totalized inverse, 0^-1 = 0) and "
        "their arithmetical variants without 0 and -.",
        epilog="Grammar: + < (* and /, left associative) < prefix - < postfix "
        "^-1 and ^n; inv(t) is the function form of t^-1; naturals expand to "
        "numerals 0, 1, 1+1, (1+1)+1, ...; identifiers are [a-z][a-z0-9_]*.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[printed], help="check and echo an expression")
    p.add_argument("expr")
    p.add_argument("--sig", choices=[s.value for s in SignatureId], help="conformance check")

    p = sub.add_parser("normalize", parents=[bounded], help="normal form of a term")
    p.add_argument("expr")
    p.add_argument("--sig", choices=_NORMALIZE_SIGS, required=True)

    p = sub.add_parser("eval", parents=[formatted], help="exact evaluation")
    p.add_argument("expr")
    p.add_argument("--assign", default="", metavar="X=Q,...", help="variable assignment")
    semantics = p.add_mutually_exclusive_group()
    semantics.add_argument("--carrier", choices=[c.value for c in Carrier], help="default all")
    semantics.add_argument("--punch", choices=[p.value for p in PunchId], help="partial semantics")

    p = sub.add_parser("decide", parents=[bounded], help="decide a term equation")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument(
        "--theory",
        type=_theory,
        required=True,
        metavar="{iamd|damd|ratiaz-gil|ratdaz-gil|closed:SIG}",
        help="closed:SIG compares exact rational values, so it decides the "
        "rational specifications (ratzi, ratiaz, ...), not the bare theory of SIG",
    )

    p = sub.add_parser("defined", parents=[formatted], help="syntactic definedness class")
    p.add_argument("expr")

    p = sub.add_parser("translate", parents=[printed], help="between / and ^-1 forms")
    p.add_argument("expr")
    p.add_argument("--to", choices=("inv", "div"), required=True)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)  # reports under the subcommand's usage
    return top


def _emit(args: argparse.Namespace, text: Callable[[], str], doc: Callable[[], dict]) -> None:
    """Print the output ``--format`` selects, built only then."""
    if args.format == "structured":
        try:
            print(json.dumps(doc()))
        except RecursionError:
            raise SchemaError("result is nested too deeply for the json module") from None
    else:
        print(text())


def _style(args: argparse.Namespace) -> NumeralStyle:
    return NumeralStyle(args.numerals)


def _conforming(expr: str, sig: Optional[str]) -> Term:
    """The parsed term, which must conform to the signature named ``sig``, if any."""
    term = parse(expr).term
    if sig is not None and not conforms(term, SignatureId(sig)):
        raise NotInSignature(f"term does not conform to the {sig} signature")
    return term


def _cmd_parse(args: argparse.Namespace) -> int:
    term = _conforming(args.expr, args.sig)
    rendered = render(term, _style(args))
    _emit(args, lambda: rendered, lambda: {"rendered": rendered, "term": term_to_dict(term)})
    return EXIT_OK


def _cmd_normalize(args: argparse.Namespace) -> int:
    term = _conforming(args.expr, args.sig)
    sig = SignatureId(args.sig)
    if is_closed(term):
        normal = closed_normal(term, sig)
        _emit(
            args,
            lambda: str(normal),
            lambda: {
                "kind": "zero" if normal == 0 else "fraction",
                "numerator": normal.numerator,
                "denominator": normal.denominator,
            },
        )
        return EXIT_OK
    inversive = term
    if sig in (SignatureId.DAMD, SignatureId.DAMDZ):
        inversive = div_to_inv(term)
    elif sig not in (SignatureId.IAMD, SignatureId.IAMDZ):
        print(f"error: no open-term normal form for {sig.value}", file=sys.stderr)
        return EXIT_ERROR
    if sig in (SignatureId.IAMDZ, SignatureId.DAMDZ):
        inversive = zero_elim(inversive)
        if isinstance(inversive, Zero):
            _emit(args, lambda: "0", lambda: {"kind": "zero", "numerator": 0, "denominator": 1})
            return EXIT_OK
    fraction = split_inverse(inversive, _bound(args))
    _emit(
        args,
        fraction.render,
        lambda: {
            "kind": "poly-fraction",
            "numerator": fraction.numerator.render(),
            "denominator": fraction.denominator.render(),
        },
    )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    term = parse(args.expr).term
    if args.punch is not None:
        env = _parse_assignment(args.assign, Carrier.NON_NEGATIVE)
        result = eval_punched(term, env, PunchId(args.punch))
        if not isinstance(result, Defined):
            _emit(args, lambda: "undefined", lambda: {"defined": False, "value": None})
            return EXIT_UNDEFINED
        value = result.value
    else:
        carrier = Carrier(args.carrier or "all")
        value = eval_total(term, _parse_assignment(args.assign, carrier), carrier)
    _emit(args, lambda: str(value), lambda: {"defined": True, "value": str(value)})
    return EXIT_OK


def _evidence_text(decision: Decision) -> str:
    evidence = decision.evidence
    if isinstance(evidence, MatchedNormals):
        label = "matched normals" if decision.verdict else "distinct normals"
        return f"{label}: {evidence.render()}"
    if isinstance(evidence, Counterexample):
        return f"counterexample: {evidence.render()}"
    if isinstance(evidence, RecursionTrace):
        return f"case split: {evidence.render()}"
    raise TypeError(f"unknown evidence: {evidence!r}")


def _evidence_doc(evidence) -> dict:
    if isinstance(evidence, MatchedNormals):
        return {
            "kind": "normals",
            "lhs": str(evidence.lhs),
            "rhs": str(evidence.rhs),
        }
    if isinstance(evidence, Counterexample):
        return {
            "kind": "counterexample",
            "assignment": {v: str(q) for v, q in sorted(evidence.assignment.items())},
            "lhs_value": str(evidence.lhs_value),
            "rhs_value": str(evidence.rhs_value),
        }
    if isinstance(evidence, RecursionTrace):
        return {
            "kind": "case-split",
            "steps": [
                {
                    "case": step.description,
                    "verdict": step.decision.verdict,
                    "evidence": _evidence_doc(step.decision.evidence),
                }
                for step in evidence.steps
            ],
        }
    raise TypeError(f"unknown evidence: {evidence!r}")


def _cmd_decide(args: argparse.Namespace) -> int:
    lhs = parse(args.lhs).term
    rhs = parse(args.rhs).term
    theory, mm = args.theory, _bound(args)
    if isinstance(theory, SignatureId):
        decision = decide_closed(lhs, rhs, theory)
    elif theory is TheoryId.IAMD:
        decision = decide_iamd(lhs, rhs, mm)
    elif theory is TheoryId.RATIAZ_GIL:
        decision = decide_iamdz_gil(lhs, rhs, mm)
    else:
        decision = decide_divisive(lhs, rhs, theory, mm)
    verdict = "true" if decision.verdict else "false"
    _emit(
        args,
        lambda: f"{verdict}\n{_evidence_text(decision)}",
        lambda: {"verdict": decision.verdict, "evidence": _evidence_doc(decision.evidence)},
    )
    return EXIT_OK if decision.verdict else EXIT_FALSE


def _cmd_defined(args: argparse.Namespace) -> int:
    term = parse(args.expr).term
    verdict = classify_def(term)
    _emit(args, lambda: verdict.value, lambda: {"class": verdict.value})
    return EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    term = parse(args.expr).term
    translated = div_to_inv(term) if args.to == "inv" else inv_to_div(term)
    rendered = render(translated, _style(args))
    _emit(args, lambda: rendered, lambda: {"rendered": rendered, "term": term_to_dict(translated)})
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "normalize": _cmd_normalize,
    "eval": _cmd_eval,
    "decide": _cmd_decide,
    "defined": _cmd_defined,
    "translate": _cmd_translate,
}


def _bound(args: argparse.Namespace) -> int:
    return DEFAULT_MAX_MONOMIALS if args.max_monomials is None else args.max_monomials


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.usage_error(f"unrecognized arguments: {' '.join(extras)}")
    for name, value in vars(args).items():
        # argparse 3.10 to 3.13.0 leaves a positional of only a trailing '--' as [].
        if isinstance(value, list):
            args.usage_error(f"the following arguments are required: {name}")
    closed = args.command == "decide" and isinstance(args.theory, SignatureId)
    if closed and args.max_monomials is not None:
        # Closed equations are decided by exact evaluation, which forms no polynomial.
        args.usage_error("--max-monomials does not apply to closed:SIG theories")
    try:
        return _COMMANDS[args.command](args)
    except (MeadowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
