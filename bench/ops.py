"""The operations of one round, each with the check of its output.

``prepare`` turns a workload's inputs into a fixed list of ``Op``s.  An
op's ``call`` is what gets timed; its ``check`` runs afterwards,
untimed, and compares the output against the reference semantics, the
equation's construction (true or false by axiom instances) or a stated
property of the method.  Every program function is reached through the
``api`` namespace at call time, so a traced run can swap in wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import workloads
from reference import DIV, INV, evaluate, operators, poly_text_value, poly_value, tokens, variables


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    metric: str  # latency bucket, or "" for operations timed only as part of run_s
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    heavy: bool = False  # run once per round; every other op runs the workload's repeat times


def make_api(m: SimpleNamespace) -> SimpleNamespace:
    """The program functions the benchmark calls, by layer."""
    return SimpleNamespace(
        parse=m.syntax.parse,
        render=m.syntax.render,
        term_to_dict=m.syntax.term_to_dict,
        term_size=m.terms.term_size,
        eval_total=m.evaluate.eval_total,
        eval_punched=m.partial.eval_punched,
        classify_def=m.partial.classify_def,
        div_to_inv=m.translate.div_to_inv,
        inv_to_div=m.translate.inv_to_div,
        split_inverse=m.normalize.split_inverse,
        zero_elim=m.normalize.zero_elim,
        decide_iamd=m.decide.decide_iamd,
        decide_iamdz_gil=m.decide.decide_iamdz_gil,
        decide_divisive=m.decide.decide_divisive,
        decide_closed=m.decide.decide_closed,
        check_model=m.theories.check_model,
        cli_main=m.cli.main,
    )


def _carrier_ok(value: Fraction, carrier: str) -> bool:
    return value > 0 if carrier == "pos" else value >= 0 if carrier == "nonneg" else True


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _points(tree) -> list[dict[str, int]]:
    """The all-ones point and a point of distinct small primes."""
    names = sorted(variables(tree))
    return [{v: 1 for v in names}, dict(zip(names, _PRIMES))]


# --- checks ------------------------------------------------------------------


def check_counterexample(lhs, rhs, env, lhs_value, rhs_value, carrier):
    require(all(_carrier_ok(q, carrier) for q in env.values()),
            f"counterexample {env} leaves the {carrier} carrier")
    ref_l, ref_r = evaluate(lhs, env), evaluate(rhs, env)
    require(ref_l == lhs_value and ref_r == rhs_value,
            f"counterexample values {lhs_value}, {rhs_value} != reference {ref_l}, {ref_r}")
    require(ref_l != ref_r, f"counterexample {env} does not separate the sides")


def check_decision(item, decision, carrier):
    require(decision.verdict == item["expect"],
            f"verdict {decision.verdict} on {item['lhs']} = {item['rhs']} ({item['theory']})")
    evidence = decision.evidence
    kind = type(evidence).__name__
    if not item["expect"]:
        require(kind == "Counterexample", f"false verdict with {kind} evidence")
        check_counterexample(item["_l"], item["_r"], evidence.assignment,
                             evidence.lhs_value, evidence.rhs_value, carrier)
    elif kind == "MatchedNormals":
        require(evidence.lhs == evidence.rhs, "true verdict with distinct normals")
    else:
        require(kind == "RecursionTrace", f"true verdict with {kind} evidence")
        require(all(step.decision.verdict for step in evidence.steps), "a case of a true split is false")


def check_split(tree, fraction, rendered, coeff_sum=None):
    """split_inverse: positive coefficients and the value of the tree at integer points."""
    num, den = list(fraction.numerator.items()), list(fraction.denominator.items())
    require(all(c >= 1 for _, c in num + den), "a coefficient below 1")
    if INV not in operators(tree):
        require(den == [((), 1)], "an inverse-free term got a denominator other than 1")
    if coeff_sum is not None:
        require(sum(c for _, c in num) == coeff_sum, "numerator coefficient sum")
    num_text, den_text = rendered[1:-1].split(") / (")
    for point in _points(tree):
        n, d = poly_value(num, point), poly_value(den, point)
        require(Fraction(n, d) == evaluate(tree, point), f"split value at {point}")
        require((poly_text_value(num_text, point), poly_text_value(den_text, point)) == (n, d),
                "rendered fraction")


def check_closed(item, decision):
    ref_l, ref_r = evaluate(item["_l"], {}), evaluate(item["_r"], {})
    require(decision.verdict == (ref_l == ref_r) == item["expect"], "closed verdict")
    normals = decision.evidence
    for normal, ref in ((normals.lhs, ref_l), (normals.rhs, ref_r)):
        require(Fraction(normal.numerator, normal.denominator) == ref, f"closed normal {normal} != {ref}")


def check_defined(tree, env, cls: str):
    """Nz/Def soundness: Def means defined under the inverse punch, Nz also positive."""
    value = evaluate(tree, env, "inv0")
    if cls in ("nz", "def"):
        require(value is not None, f"class {cls} but undefined at {env}")
    if cls == "nz":
        require(value > 0, f"class nz but value {value} at {env}")


def check_translation(tree, result, to, env):
    ops = operators(result)
    require((DIV if to == "inv" else INV) not in ops, f"translation to {to} left the source primitive")
    require(evaluate(result, env) == evaluate(tree, env), "translation changed the value")


def check_model_report(m, theory, carrier, report, samples):
    th = m.theories.TheoryId(theory)
    laws = list(m.theories.axioms(th))
    conditional = m.theories.conditional_law(th)
    if conditional is not None:
        laws.append(conditional)
    require(len(report.checks) == len(laws) and report.samples == samples, "report shape")
    if workloads.MODEL_TABLE[(theory, carrier)]:
        require(report.passed, f"the rationals must model {theory} over {carrier}")
    for law, check in zip(laws, report.checks):
        if check.witness is None:
            continue
        w = check.witness
        require(all(_carrier_ok(q, carrier) for q in w.assignment.values()), "witness off carrier")
        if conditional is not None and law is conditional:
            require(evaluate(law.subject, w.assignment) != 0, "witness violates the guard")
        check_counterexample(law.lhs, law.rhs, w.assignment, w.left, w.right, "all")


def check_cli(item, code: int, stdout: str):
    kind = item["kind"]
    expect_code = 0
    if kind == "decide" and not item["expect"]:
        expect_code = 1
    tree = item.get("_t")
    if kind == "eval" and item["punch"] and evaluate(tree, item["_env"], item["punch"]) is None:
        expect_code = 3
    require(code == expect_code, f"exit code {code} != {expect_code} for {item['argv'][0]}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    if kind == "decide":
        require(doc["verdict"] == item["expect"], "CLI verdict")
        ev = doc["evidence"]
        if not item["expect"]:
            env = {v: Fraction(q) for v, q in ev["assignment"].items()}
            carrier = "pos" if item["theory"] in ("iamd", "damd") else "nonneg"
            check_counterexample(item["_l"], item["_r"], env, Fraction(ev["lhs_value"]),
                                 Fraction(ev["rhs_value"]), carrier)
    elif kind == "eval":
        ref = evaluate(tree, item["_env"], item["punch"])
        if ref is None:
            require(doc["defined"] is False, "CLI eval defined where the reference is not")
        else:
            require(Fraction(doc["value"]) == ref, f"CLI eval {doc['value']} != {ref}")
    elif kind == "normalize":
        for point in _points(tree):
            if doc["kind"] == "poly-fraction":
                value = Fraction(poly_text_value(doc["numerator"], point),
                                 poly_text_value(doc["denominator"], point))
            else:
                value = Fraction(doc["numerator"], doc["denominator"])
            require(value == evaluate(tree, point), "CLI normal form value")
    elif kind in ("parse", "translate"):
        env = {v: Fraction(i + 2) for i, v in enumerate(sorted(variables(tree)))}
        require(evaluate(doc["term"], env) == evaluate(tree, env), f"CLI {kind} value")
        if kind == "translate":
            check_translation(tree, doc["term"], item["argv"][item["argv"].index("--to") + 1], env)
    elif kind == "defined":
        for point in _points(tree) + [{v: 0 for v in variables(tree)}]:
            check_defined(tree, point, doc["class"])


# --- op construction -----------------------------------------------------------


def _decide_call(api, m, theory, lhs, rhs):
    if theory == "iamd":
        return lambda: api.decide_iamd(lhs, rhs)
    if theory == "ratiaz-gil":
        return lambda: api.decide_iamdz_gil(lhs, rhs)
    if theory.startswith("closed:"):
        sig = m.terms.SignatureId(theory.removeprefix("closed:"))
        return lambda: api.decide_closed(lhs, rhs, sig)
    th = m.theories.TheoryId(theory)
    return lambda: api.decide_divisive(lhs, rhs, th)


def _run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli_main(argv)
    return code, out.getvalue()


def cold_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _cold_call(argv, src, cwd):
    """A fresh interpreter running the CLI; a traceback counts as a failed operation."""
    def call():
        proc = subprocess.run([sys.executable, "-m", "meadows.cli", *argv], env=cold_env(src),
                              cwd=cwd, capture_output=True, text=True, timeout=120)
        if "Traceback (most recent call last)" in proc.stderr:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout
    return call


def prepare(inputs: dict, m: SimpleNamespace, api: SimpleNamespace, parsed: dict,
            src: str, cwd: str, model_samples: int) -> list[Op]:
    """The fixed operation list of one round."""
    ops: list[Op] = []
    seed = inputs["seed"]

    def term(text):
        return parsed[text]

    for item in inputs["roundtrip"]:
        text, tree = item["text"], item["_t"]

        def roundtrip(text=text):
            t1 = api.parse(text).term
            rendered = api.render(t1)
            return t1, api.parse(rendered).term

        def check_roundtrip(result, tree=tree):
            t1, t2 = result
            require(tokens(t1) == tokens(t2), "parse(render(t)) != t")
            env = {v: Fraction(i + 2) for i, v in enumerate(sorted(variables(tree)))}
            require(evaluate(t1, env) == evaluate(tree, env), "parsed term has another value")
        ops.append(Op("roundtrip", "roundtrip", roundtrip, check_roundtrip))

    for item in inputs["eval"]:
        t, tree = term(item["text"]), item["_t"]
        env = {v: Fraction(q) for v, q in item["env"].items()}
        carrier = m.evaluate.Carrier(item["carrier"])
        ops.append(Op("eval", "eval_total", lambda t=t, env=env, c=carrier: api.eval_total(t, env, c),
                      lambda value, tree=tree, env=env: require(
                          value == evaluate(tree, env), "eval_total value")))

    for item in inputs["punch"]:
        t, tree, punch = term(item["text"]), item["_t"], item["punch"]
        env = {v: Fraction(q) for v, q in item["env"].items()}

        def check_punch(value, tree=tree, env=env, punch=punch):
            ref = evaluate(tree, env, punch)
            if ref is None:
                require(type(value).__name__ == "Undefined", "punched value defined")
            else:
                require(type(value).__name__ == "Defined" and value.value == ref, "punched value")
        ops.append(Op("", "eval_punched",
                      lambda t=t, env=env, p=m.partial.PunchId(punch): api.eval_punched(t, env, p),
                      check_punch))

    for item in inputs["classify"]:
        t, tree = term(item["text"]), item["_t"]
        env = {v: Fraction(q) for v, q in item["env"].items()}
        ops.append(Op("", "classify_def", lambda t=t: api.classify_def(t),
                      lambda cls, tree=tree, env=env: check_defined(tree, env, cls.value)))

    for item in inputs["translate"]:
        t, tree, to = term(item["text"]), item["_t"], item["to"]
        env = {v: Fraction(q) for v, q in item["env"].items()}
        fn = "div_to_inv" if to == "inv" else "inv_to_div"
        ops.append(Op("", fn, lambda t=t, fn=fn: getattr(api, fn)(t),
                      lambda result, tree=tree, to=to, env=env: check_translation(tree, result, to, env)))

    for item in inputs["closed"]:
        call = _decide_call(api, m, item["theory"], term(item["lhs"]), term(item["rhs"]))
        ops.append(Op("closed", "decide_closed", call, lambda d, item=item: check_closed(item, d)))

    for item in inputs["normalize"]:
        t, tree = term(item["text"]), item["_t"]
        def normalize(t=t):
            fraction = api.split_inverse(t)
            return fraction, fraction.render()
        ops.append(Op("normalize", "split_inverse", normalize,
                      lambda r, tree=tree, s=item.get("coeff_sum"): check_split(tree, r[0], r[1], s),
                      item.get("heavy", False)))

    for family, carrier in (("iamd", "pos"), ("gil", "nonneg"), ("gil_small", "nonneg")):
        for item in inputs[family]:
            call = _decide_call(api, m, item["theory"], term(item["lhs"]), term(item["rhs"]))
            metric = f"{family}_{'true' if item['expect'] else 'false'}" if family != "gil_small" else ""
            ops.append(Op(metric, item["theory"], call,
                          lambda d, item=item, c=carrier: check_decision(item, d, c),
                          item.get("heavy", False)))

    for i, (theory, carrier) in enumerate(inputs["check_model"]):
        th, c = m.theories.TheoryId(theory), m.evaluate.Carrier(carrier)
        ops.append(Op("check_model", "check_model",
                      lambda th=th, c=c, s=seed + i: api.check_model(th, c, model_samples, s),
                      lambda report, th=theory, c=carrier: check_model_report(
                          m, th, c, report, model_samples)))

    for item in inputs["cli_main"]:
        ops.append(Op("cli_main", "cli_main", lambda argv=item["argv"]: _run_cli(api, argv),
                      lambda r, item=item: check_cli(item, *r)))
    for item in inputs["cli_cold"]:
        ops.append(Op("cli_cold", "cli_cold", _cold_call(item["argv"], src, cwd),
                      lambda r, item=item: check_cli(item, *r)))

    for item in inputs["deep"]:
        ops.append(_deep_op(item, m, api, parsed, src, cwd))
    return interleave(ops, inputs["repeat"])


def interleave(op_list: list[Op], repeat: int) -> list[Op]:
    """The round: each light op ``repeat`` times, each heavy op once, all spread evenly.

    The machine's speed drifts over seconds; spreading every kind, and
    every copy of an op, over the whole round lets each op's samples see
    the same mix of fast and slow stretches instead of one stretch.  The
    copies give the light ops of a workload with a few long calls enough
    samples per run.
    """
    groups: dict[str, list[Op]] = {}
    for op in op_list:
        groups.setdefault(op.name, []).append(op)
    keyed = []
    for k, group in enumerate(groups.values()):
        for i, op in enumerate(group):
            copies = 1 if op.heavy else repeat
            keyed += [((j + (i + 0.5) / len(group)) / copies, k, op) for j in range(copies)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def _deep_op(item, m, api, parsed, src, cwd) -> Op:
    """One deep-term operation and the answer a stack-safe term core must give."""
    kind, text = item["op"], item["text"]
    n = workloads.DEEP_N
    value = n if text.isdigit() else 2**n
    t = parsed[text]
    env = {} if text.isdigit() else {"x": Fraction(2)}
    argv = ["eval", "--format", "structured", "--", text]

    def eq_call():
        # Two separately built copies, so equality has to walk the structure.
        return api.parse(text).term == api.parse(text).term

    def check_eval_doc(r):
        code, stdout = r
        require(code == 0 and Fraction(json.loads(stdout)["value"]) == value, "CLI eval of a deep term")

    def roundtrip():
        t1 = api.parse(text).term
        rendered = api.render(t1)
        return t1, rendered, api.parse(rendered).term

    def check_roundtrip(r):
        t1, rendered, t2 = r
        require(rendered == text, f"render gave {rendered[:40]!r}")
        require(tokens(t1) == tokens(t2), "parse(render(t)) != t")

    calls = {
        "roundtrip": (roundtrip, check_roundtrip),
        "split_inverse": (lambda: api.split_inverse(t),
                          lambda r: require(list(r.numerator.items()) == [((), value)]
                                            and list(r.denominator.items()) == [((), 1)], "deep split")),
        "hash": (lambda: hash(t), lambda r: require(isinstance(r, int), "hash")),
        "eq": (eq_call, lambda r: require(r is True, "equal terms compare unequal")),
        "eval_total": (lambda: api.eval_total(t, env),
                       lambda r: require(r == value, "deep eval_total")),
        "zero_elim": (lambda: api.zero_elim(t),
                      lambda r: require(tokens(r) == tokens(t), "zero_elim changed a 0-free term")),
        "term_to_dict": (lambda: api.term_to_dict(t),
                         lambda r: require(evaluate(r, {}) == value, "term_to_dict value")),
        "term_size": (lambda: api.term_size(t), lambda r: require(r == 2 * n - 1, "term_size")),
        "cli_main": (lambda: _run_cli(api, argv), check_eval_doc),
        "cli_cold": (_cold_call(argv, src, cwd), check_eval_doc),
    }
    call, check = calls[kind]
    return Op("", f"deep_{kind}", call, check)
