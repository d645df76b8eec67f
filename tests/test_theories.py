"""Tests for the axiom-set catalog and sampled model checking."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import (
    ONE,
    Add,
    AxiomCheck,
    Carrier,
    ConditionalLaw,
    Equation,
    Inv,
    ModelReport,
    Mul,
    SignatureId,
    SignatureMismatch,
    Term,
    Theory,
    TheoryId,
    Var,
    Witness,
    ZERO,
    axioms,
    check_model,
    conditional_law,
    conforms,
    eval_total,
    free_vars,
    theory,
)
from meadows import theories
from termgen import random_term, reference_value

EXPECTED_SIZES = {
    TheoryId.CR: 8,
    TheoryId.ACRZ: 7,
    TheoryId.ACR: 6,
    TheoryId.IAMD: 7,
    TheoryId.DAMD: 7,
    TheoryId.IAMDZ: 9,
    TheoryId.DAMDZ: 10,
    TheoryId.IMD: 10,
    TheoryId.DMD: 11,
    TheoryId.RATZI_SPEC: 11,
    TheoryId.RATZD_SPEC: 12,
    TheoryId.RATIAZ_SPEC: 10,
    TheoryId.RATDAZ_SPEC: 11,
    TheoryId.RATIAZ_ALT_SPEC: 10,
    TheoryId.RATDAZ_ALT_SPEC: 11,
    TheoryId.RATIAZ_GIL: 10,
    TheoryId.RATDAZ_GIL: 11,
}


def labels(id: TheoryId) -> list:
    return [eq.label for eq in axioms(id)]


class TestCatalog:
    def test_sizes(self):
        for id, want in EXPECTED_SIZES.items():
            assert len(axioms(id)) == want, id

    def test_every_theory_listed(self):
        assert set(EXPECTED_SIZES) == set(TheoryId)

    def test_ring_axioms(self):
        assert labels(TheoryId.CR) == [
            "add-assoc",
            "add-comm",
            "add-ident",
            "add-inverse",
            "mul-assoc",
            "mul-comm",
            "mul-ident",
            "distrib",
        ]

    def test_set_difference_structure(self):
        cr = axioms(TheoryId.CR)
        acrz = axioms(TheoryId.ACRZ)
        acr = axioms(TheoryId.ACR)
        assert acrz == [eq for eq in cr if eq.label != "add-inverse"]
        assert acr == [eq for eq in acrz if eq.label != "add-ident"]

    def test_acr_mentions_neither_zero_nor_neg(self):
        for eq in axioms(TheoryId.ACR):
            for side in (eq.lhs, eq.rhs):
                assert conforms(side, SignatureId.IAMD)

    def test_iamd_extends_acr_with_inverse_law(self):
        got = axioms(TheoryId.IAMD)
        assert got[:-1] == axioms(TheoryId.ACR)
        last = got[-1]
        assert last.label == "inverse-law"
        assert last.render() == "x * x^-1 = 1"

    def test_damd_division_law(self):
        assert axioms(TheoryId.DAMD)[-1].render() == "x / x = 1"

    def test_invertibility_equations(self):
        assert axioms(TheoryId.RATZI_SPEC)[-1].render() == (
            "(1 + x^2 + y^2) * (1 + x^2 + y^2)^-1 = 1"
        )
        assert axioms(TheoryId.RATIAZ_ALT_SPEC)[-1].render() == (
            "x * (x + y) * (x * (x + y))^-1 = x * x^-1"
        )

    def test_equations_conform_to_theory_signature(self):
        for id in TheoryId:
            th = theory(id)
            for eq in th.equations:
                assert conforms(eq.lhs, th.signature), (id, eq.label)
                assert conforms(eq.rhs, th.signature), (id, eq.label)

    def test_conditional_law_attachment(self):
        assert conditional_law(TheoryId.IAMD) is None
        assert conditional_law(TheoryId.RATIAZ_ALT_SPEC) is None
        law = conditional_law(TheoryId.RATIAZ_GIL)
        assert law is not None
        assert law.render() == "x != 0  =>  x * x^-1 = 1"
        # The equational parts coincide with the alternative specification.
        assert axioms(TheoryId.RATIAZ_GIL) == axioms(TheoryId.RATIAZ_ALT_SPEC)
        div_law = conditional_law(TheoryId.RATDAZ_GIL)
        assert div_law is not None
        assert div_law.render() == "x != 0  =>  x / x = 1"

    def test_equation_variables(self):
        distrib = axioms(TheoryId.CR)[-1]
        assert distrib.variables == ("x", "y", "z")


class TestCheckModel:
    def test_positive_rationals_model_iamd(self):
        report = check_model(TheoryId.IAMD, Carrier.POSITIVE, samples=500, seed=7)
        assert report.passed
        assert len(report.checks) == 7

    def test_nonneg_carrier_cannot_interpret_neg(self):
        with pytest.raises(SignatureMismatch):
            check_model(TheoryId.IMD, Carrier.NON_NEGATIVE, samples=500, seed=7)

    def test_positive_carrier_cannot_interpret_zero(self):
        with pytest.raises(SignatureMismatch):
            check_model(TheoryId.IAMDZ, Carrier.POSITIVE, samples=100, seed=0)

    def test_nonneg_rationals_model_iamdz(self):
        report = check_model(TheoryId.IAMDZ, Carrier.NON_NEGATIVE, samples=500, seed=7)
        assert report.passed

    def test_rationals_model_ratzi(self):
        report = check_model(TheoryId.RATZI_SPEC, Carrier.ALL, samples=500, seed=7)
        assert report.passed

    def test_rationals_model_ratzd(self):
        report = check_model(TheoryId.RATZD_SPEC, Carrier.ALL, samples=300, seed=3)
        assert report.passed

    def test_nonneg_rationals_model_gil_theory(self):
        # The conditional law is only tested where its guard holds.
        report = check_model(TheoryId.RATIAZ_GIL, Carrier.NON_NEGATIVE, samples=500, seed=7)
        assert report.passed
        assert report.checks[-1].label == "general-inverse-law"

    def test_unrestricted_inverse_law_fails_at_zero(self):
        # Zero is a sampled non-negative value, and 0 * 0^-1 = 0 there.
        report = check_model(TheoryId.IAMD, Carrier.NON_NEGATIVE, samples=500, seed=7)
        assert not report.passed
        (failure,) = report.failures()
        assert failure.label == "inverse-law"
        assert failure.witness is not None
        assert failure.witness.assignment == {"x": Fraction(0)}
        assert failure.witness.left == 0
        assert failure.witness.right == 1

    def test_deterministic_given_seed(self):
        a = check_model(TheoryId.DAMDZ, Carrier.NON_NEGATIVE, samples=50, seed=11)
        b = check_model(TheoryId.DAMDZ, Carrier.NON_NEGATIVE, samples=50, seed=11)
        assert [(c.label, c.ok) for c in a.checks] == [(c.label, c.ok) for c in b.checks]
        assert [c.witness for c in a.checks] == [c.witness for c in b.checks]

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            check_model(TheoryId.CR, Carrier.ALL, samples=0, seed=0)

    @given(st.integers(1, 60), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_ratzi_passes_for_all_sample_counts_and_seeds(self, samples: int, seed: int):
        assert check_model(TheoryId.RATZI_SPEC, Carrier.ALL, samples=samples, seed=seed).passed

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_all_theories_hold_on_their_natural_carrier(self, seed: int):
        natural = {
            TheoryId.CR: Carrier.ALL,
            TheoryId.ACRZ: Carrier.NON_NEGATIVE,
            TheoryId.ACR: Carrier.POSITIVE,
            TheoryId.IAMD: Carrier.POSITIVE,
            TheoryId.DAMD: Carrier.POSITIVE,
            TheoryId.IAMDZ: Carrier.NON_NEGATIVE,
            TheoryId.DAMDZ: Carrier.NON_NEGATIVE,
            TheoryId.IMD: Carrier.ALL,
            TheoryId.DMD: Carrier.ALL,
            TheoryId.RATZI_SPEC: Carrier.ALL,
            TheoryId.RATZD_SPEC: Carrier.ALL,
            TheoryId.RATIAZ_SPEC: Carrier.NON_NEGATIVE,
            TheoryId.RATDAZ_SPEC: Carrier.NON_NEGATIVE,
            TheoryId.RATIAZ_ALT_SPEC: Carrier.NON_NEGATIVE,
            TheoryId.RATDAZ_ALT_SPEC: Carrier.NON_NEGATIVE,
            TheoryId.RATIAZ_GIL: Carrier.NON_NEGATIVE,
            TheoryId.RATDAZ_GIL: Carrier.NON_NEGATIVE,
        }
        for id, carrier in natural.items():
            assert check_model(id, carrier, samples=40, seed=seed).passed, id

    def test_free_vars_of_axiom_sides_are_finite_and_conform(self):
        for id in TheoryId:
            for eq in axioms(id):
                assert set(eq.variables) == set(free_vars(eq.lhs)) | set(free_vars(eq.rhs))


def reference_draw(rng: random.Random, carrier: Carrier) -> Fraction:
    """One sampled carrier value as a Fraction, with check_model's calls on ``rng``."""
    if carrier is not Carrier.POSITIVE and rng.random() < 0.2:
        return Fraction(0)
    value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    if carrier is Carrier.ALL and rng.random() < 0.5:
        value = -value
    return value


def reference_check_model(id: TheoryId, carrier: Carrier, samples: int, seed: int) -> ModelReport:
    """check_model as one loop over samples, each evaluated by the recursive reference."""
    th = theories._THEORIES[id]
    laws = [*th.equations, *([th.conditional] if th.conditional else [])]
    rng = random.Random(seed)
    checks = []
    for law in laws:
        witness = None
        for _ in range(samples):
            env = {v: reference_draw(rng, carrier) for v in law.variables}
            if isinstance(law, ConditionalLaw) and reference_value(law.subject, env) == 0:
                continue
            left, right = reference_value(law.lhs, env), reference_value(law.rhs, env)
            if left != right and witness is None:
                witness = Witness(env, left, right)
        checks.append(AxiomCheck(law.label, law.render(), witness is None, witness))
    return ModelReport(id, carrier, samples, seed, tuple(checks))


def _supported(id: TheoryId, carrier: Carrier) -> bool:
    try:
        check_model(id, carrier, samples=1)
    except SignatureMismatch:
        return False
    return True


SUPPORTED = [(id, c) for id in TheoryId for c in Carrier if _supported(id, c)]
SIGNATURE_CARRIERS = [
    (sig, c) for sig in SignatureId for c in Carrier if sig.constructors <= c.constructors
]


def random_theory(rng: random.Random, sig: SignatureId) -> Theory:
    """Random laws over ``sig``: false ones, and ones that hold by symmetry, maybe guarded."""

    def term() -> Term:
        return random_term(rng, sig, 9, ("x", "y", "z"))

    equations = []
    for i in range(rng.randint(1, 4)):
        t, u = term(), term()
        pair = rng.choice([(t, u), (t, t), (Add(t, u), Add(u, t)), (Mul(t, u), Mul(u, t))])
        equations.append(Equation(*pair, f"law-{i}"))
    guarded = ConditionalLaw(term(), term(), term(), "guarded") if rng.random() < 0.5 else None
    return Theory(TheoryId.CR, sig, tuple(equations), guarded)


class TestCheckModelReference:
    """check_model's reports are those of a per-sample loop over Fraction draws."""

    @pytest.mark.parametrize("carrier", list(Carrier))
    def test_pair_draw_is_the_fraction_draw(self, carrier):
        mine, theirs = random.Random(17), random.Random(17)
        pairs = [theories._sample_pair(mine, carrier) for _ in range(3000)]
        assert [Fraction(*pair) for pair in pairs] == [
            reference_draw(theirs, carrier) for _ in range(3000)
        ]
        assert all(q > 0 for _, q in pairs)
        assert mine.getstate() == theirs.getstate()

    def test_matches_per_sample_reference(self):
        assert len(SUPPORTED) > len(TheoryId)
        cases = [(id, c, n, seed) for seed, (id, c) in enumerate(SUPPORTED) for n in (1, 7, 65)]
        want = [reference_check_model(*case) for case in cases]
        assert any(not report.passed for report in want)
        assert [repr(check_model(*case)) for case in cases] == list(map(repr, want))

    @given(st.integers(0, 2**32), st.sampled_from(SIGNATURE_CARRIERS), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_random_laws_match_reference(self, seed: int, sig_carrier: tuple, samples: int):
        sig, carrier = sig_carrier
        test_theory = random_theory(random.Random(seed), sig)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(theories._THEORIES, TheoryId.CR, test_theory)
            report = check_model(TheoryId.CR, carrier, samples, seed)
            assert repr(report) == repr(reference_check_model(TheoryId.CR, carrier, samples, seed))

    @pytest.mark.parametrize("id", [TheoryId.CR, TheoryId.RATIAZ_GIL, TheoryId.RATDAZ_GIL])
    def test_each_law_side_is_listed_once(self, monkeypatch, id):
        import meadows.evaluate

        listed = []
        nodes = meadows.evaluate.nodes
        monkeypatch.setattr(meadows.evaluate, "nodes", lambda t: listed.append(t) or nodes(t))
        check_model(id, Carrier.ALL, samples=60, seed=3)
        th = theory(id)
        sides = [t for law in th.equations for t in law[:2]]
        if th.conditional is not None:
            sides += th.conditional[:3]  # the guard too
        assert sorted(map(repr, listed)) == sorted(map(repr, sides))

    def test_guarded_and_late_witnesses(self, monkeypatch):
        x, y = Var("x"), Var("y")
        test_theory = Theory(
            TheoryId.RATIAZ_GIL,
            SignatureId.IAMDZ,
            (
                Equation(Mul(x, Inv(x)), ONE, "fails-only-at-zero"),
                Equation(Mul(x, Inv(y)), x, "fails-often"),
                Equation(Add(x, y), Add(y, x), "holds"),
            ),
            ConditionalLaw(x, x, ONE, "guarded"),
        )
        monkeypatch.setitem(theories._THEORIES, TheoryId.RATIAZ_GIL, test_theory)
        carrier, samples, seed = Carrier.NON_NEGATIVE, 20, 25
        # The seed's stream: the first law first fails at its tenth draw,
        # and the guarded law's first draw is x = 0, where its sides differ
        # but its guard is 0.
        rng = random.Random(seed)
        draws = [reference_draw(rng, carrier) for _ in range(samples * 6)]
        assert draws[:samples].index(0) == 9
        assert draws[5 * samples] == 0

        report = check_model(TheoryId.RATIAZ_GIL, carrier, samples, seed)
        assert report == reference_check_model(TheoryId.RATIAZ_GIL, carrier, samples, seed)
        assert [c.ok for c in report.checks] == [False, False, True, False]
        assert report.checks[0].witness.assignment == {"x": 0}
        guarded = report.checks[-1].witness
        assert guarded.assignment["x"] not in (0, 1)
        laws = [*test_theory.equations, test_theory.conditional]
        for law, check in zip(laws, report.checks):
            if check.witness is not None:
                env = check.witness.assignment
                assert check.witness.left == eval_total(law.lhs, env, carrier)
                assert check.witness.right == eval_total(law.rhs, env, carrier)
