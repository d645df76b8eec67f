"""Acceptance gate: ten end-to-end criteria, one visible line each.

Every criterion is exact (no numeric tolerance) and carries a wall-clock
budget.  The reporter prints its line through the capture-disabled
stream so the verdicts stay visible in batch test output.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from meadows import (
    Add,
    Carrier,
    Counterexample,
    DefClass,
    Defined,
    Div,
    Inv,
    Mul,
    ONE,
    PunchId,
    SignatureId,
    TheoryId,
    UNDEFINED,
    Var,
    ZERO,
    axioms,
    check_model,
    classify_def,
    closed_normal,
    decide_closed,
    decide_divisive,
    decide_iamd,
    decide_iamdz_gil,
    div_to_inv,
    eval_punched,
    eval_total,
    free_vars,
    inv_to_div,
    numeral,
    parse_term,
    power,
    render,
    split_inverse,
    substitute,
    zero_elim,
)
from termgen import random_term
from test_decide import equal_variant

X = Var("x")
Y = Var("y")


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number: int, name: str, budget: float):
        start = time.perf_counter()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            ok = not failed and elapsed < budget
            status = "PASS" if ok else "FAIL"
            with capsys.disabled():
                print(f"\ncriterion {number:2d} {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"

    return run


def _split_value(t):
    """The constant fraction ``split_inverse`` gives a closed zero-free term."""
    num, den = split_inverse(t)
    return Fraction(num.constant_value(), den.constant_value())


def test_criterion_01_closed_normals_match_evaluation(criterion):
    with criterion(1, "closed normal forms, zero-free", 5.0):
        rng = random.Random(101)
        for _ in range(1000):
            t = random_term(rng, SignatureId.IAMD, max_size=40)
            normal = closed_normal(t, SignatureId.IAMD)
            split = _split_value(t)
            assert math.gcd(normal.numerator, normal.denominator) == 1
            assert math.gcd(split.numerator, split.denominator) == 1
            assert normal == split == eval_total(t, {}, Carrier.POSITIVE)


def test_criterion_02_closed_normals_with_zero(criterion):
    with criterion(2, "closed normal forms, zero-carrying", 5.0):
        rng = random.Random(202)
        for _ in range(1000):
            t = random_term(rng, SignatureId.IAMDZ, max_size=40)
            normal = closed_normal(t, SignatureId.IAMDZ)
            reduced = zero_elim(t)
            split = Fraction(0) if reduced == ZERO else _split_value(reduced)
            value = eval_total(t, {}, Carrier.NON_NEGATIVE)
            assert (normal == 0) == (split == 0) == (value == 0)
            assert normal == split == value
            assert math.gcd(normal.numerator, normal.denominator) == 1
            assert math.gcd(split.numerator, split.denominator) == 1


def test_criterion_03_axioms_and_derived_laws_decide_true(criterion):
    with criterion(3, "decision procedure accepts the axioms", 10.0):
        rng = random.Random(303)
        for eq in axioms(TheoryId.IAMD):
            for _ in range(20):
                # Replacements use fresh names, so substituting the
                # axiom variables one at a time is simultaneous.
                lhs, rhs = eq.lhs, eq.rhs
                for v in eq.variables:
                    replacement = random_term(
                        rng, SignatureId.IAMD, max_size=6, variables=("u", "v")
                    )
                    lhs = substitute(lhs, v, replacement)
                    rhs = substitute(rhs, v, replacement)
                assert decide_iamd(lhs, rhs).verdict, eq.label
        assert decide_iamd(Inv(Inv(X)), X).verdict
        assert decide_iamd(Inv(Mul(X, Y)), Mul(Inv(X), Inv(Y))).verdict
        for n in range(1, 26):
            for m in range(1, 26):
                assert decide_iamd(Add(numeral(n), numeral(m)), numeral(n + m)).verdict
                assert decide_iamd(Mul(numeral(n), numeral(m)), numeral(n * m)).verdict


def test_criterion_04_refutations_carry_real_counterexamples(criterion):
    with criterion(4, "refutation with checked counterexamples", 30.0):
        rng = random.Random(404)
        checked = 0
        while checked < 500:
            t = random_term(rng, SignatureId.IAMD, max_size=14, variables=("x", "y"))
            u = random_term(rng, SignatureId.IAMD, max_size=14, variables=("x", "y"))
            ft, fu = split_inverse(t), split_inverse(u)
            if ft.numerator * fu.denominator == fu.numerator * ft.denominator:
                continue
            d = decide_iamd(t, u)
            assert not d.verdict
            ce = d.evidence
            assert isinstance(ce, Counterexample)
            lhs = eval_total(t, ce.assignment, Carrier.POSITIVE)
            rhs = eval_total(u, ce.assignment, Carrier.POSITIVE)
            assert lhs != rhs
            assert (lhs, rhs) == (ce.lhs_value, ce.rhs_value)
            checked += 1


def test_criterion_05_general_inverse_law_decisions(criterion):
    with criterion(5, "general-inverse-law decisions", 1.0):
        squares = Add(Add(ONE, power(X, 2)), power(Y, 2))
        assert decide_iamdz_gil(Mul(squares, Inv(squares)), ONE).verdict
        assert decide_iamdz_gil(ONE, Mul(squares, Inv(squares))).verdict
        shared = Mul(X, Add(X, Y))
        assert decide_iamdz_gil(Mul(shared, Inv(shared)), Mul(X, Inv(X))).verdict
        assert decide_iamdz_gil(Mul(X, Inv(X)), Mul(shared, Inv(shared))).verdict
        d = decide_iamdz_gil(Mul(X, Inv(X)), ONE)
        assert not d.verdict
        assert isinstance(d.evidence, Counterexample)
        assert d.evidence.assignment == {"x": Fraction(0)}


def test_criterion_06_closed_oracle_agreement(criterion):
    with criterion(6, "closed-term oracle agreement", 30.0):
        rng = random.Random(606)
        for _ in range(500):
            t = random_term(rng, SignatureId.IAMD, max_size=12)
            u = equal_variant(rng, t) if rng.random() < 0.5 else random_term(
                rng, SignatureId.IAMD, max_size=12
            )
            assert decide_iamd(t, u).verdict == decide_closed(t, u, SignatureId.IAMD).verdict
        for _ in range(500):
            t = random_term(rng, SignatureId.IAMDZ, max_size=12)
            u = (
                equal_variant(rng, t, with_zero=True)
                if rng.random() < 0.5
                else random_term(rng, SignatureId.IAMDZ, max_size=12)
            )
            assert (
                decide_iamdz_gil(t, u).verdict
                == decide_closed(t, u, SignatureId.IAMDZ).verdict
            )


def test_criterion_07_model_checking(criterion):
    with criterion(7, "sampled model checking", 10.0):
        cases = [
            (TheoryId.IAMD, Carrier.POSITIVE),
            (TheoryId.IAMDZ, Carrier.NON_NEGATIVE),
            (TheoryId.DAMDZ, Carrier.NON_NEGATIVE),
            (TheoryId.IMD, Carrier.ALL),
            (TheoryId.DMD, Carrier.ALL),
            (TheoryId.RATZI_SPEC, Carrier.ALL),
        ]
        for id, carrier in cases:
            report = check_model(id, carrier, samples=500, seed=7)
            assert report.passed, (id, report.failures())


def test_criterion_08_partiality_soundness(criterion):
    with criterion(8, "definedness criterion soundness", 5.0):
        rng = random.Random(808)
        for _ in range(1000):
            t = random_term(rng, SignatureId.IAMDZ, max_size=14)
            cls = classify_def(t)
            result = eval_punched(t, {}, PunchId.INV0)
            if cls.in_def:
                assert isinstance(result, Defined)
            if cls is DefClass.IN_NZ:
                assert isinstance(result, Defined) and result.value > 0
        assert eval_punched(Inv(ZERO), {}, PunchId.INV0) is UNDEFINED
        assert eval_punched(Div(ZERO, ZERO), {}, PunchId.DIV_NONZERO0) == Defined(Fraction(0))
        assert eval_punched(Div(ONE, ZERO), {}, PunchId.DIV_ALL0) is UNDEFINED


def test_criterion_09_translation_coherence(criterion):
    with criterion(9, "divisive/inversive translation coherence", 30.0):
        rng = random.Random(909)
        for i in range(500):
            if i % 2 == 0:
                sig, carrier, theory = SignatureId.DAMD, Carrier.POSITIVE, TheoryId.DAMD
                low = 1
            else:
                sig, carrier, theory = (
                    SignatureId.DAMDZ,
                    Carrier.NON_NEGATIVE,
                    TheoryId.RATDAZ_GIL,
                )
                low = 0
            t = random_term(rng, sig, max_size=12, variables=("x", "y"))
            translated = div_to_inv(t)
            for _ in range(20):
                env = {
                    v: Fraction(rng.randint(low, 9), rng.randint(1, 9)) for v in ("x", "y")
                }
                assert eval_total(t, env, carrier) == eval_total(translated, env, carrier)
            back = inv_to_div(translated)
            assert decide_divisive(t, back, theory).verdict


def test_criterion_10_parser_round_trip(criterion):
    with criterion(10, "parse/print structural round trip", 5.0):
        rng = random.Random(1010)
        per_signature = 10000 // len(SignatureId) + 1
        for sig in SignatureId:
            for _ in range(per_signature):
                t = random_term(rng, sig, max_size=16, variables=("x", "y", "z"))
                assert parse_term(render(t)) == t
