"""Seeded inputs of the three workloads.

Every input is built here as a small tuple tree (see ``reference``) and
handed to the program only as text in its concrete syntax, so the
program sees nothing but generated inputs.  The trees stay with the
benchmark and feed the reference checks.  The same (workload, seed,
smoke) always gives the same inputs; ``python3 bench/run.py --workload W
--seed N --print-inputs`` prints them.

The shape of every round (how many operations of each kind, and which
fixed-shape terms) never depends on the seed: the seed picks variable
names, summand and factor orders, which axiom instance rewrites a true
side, and the random small terms.  That keeps the cost of a round, and
the share of operations that fail, the same for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import ADD, DIV, INV, MUL, NEG, POW, evaluate, tokens, variables

WORKLOADS = ("poly-expand", "gil-split", "term-mix")

# How many times a round runs each light operation.  The few heavy ones
# (the ROADMAP product on poly-expand, the true n = 7 GIL equations on
# gil-split) run once per round and take seconds, so without copies the
# light operations of those workloads would get only three samples in a run.
REPEAT = {"poly-expand": 3, "gil-split": 3, "term-mix": 1}


# Signature -> allowed operators, whether 0 is a constant, evaluation carrier.
SIGNATURES = {
    "cr": ({ADD, MUL, NEG}, True, "all"),
    "imd": ({ADD, MUL, NEG, INV}, True, "all"),
    "dmd": ({ADD, MUL, NEG, DIV}, True, "all"),
    "iamdz": ({ADD, MUL, INV}, True, "nonneg"),
    "damdz": ({ADD, MUL, DIV}, True, "nonneg"),
    "iamd": ({ADD, MUL, INV}, False, "pos"),
    "damd": ({ADD, MUL, DIV}, False, "pos"),
}

# (theory, carrier) pairs check_model supports, and whether the rationals
# restricted to that carrier must be a model.  The reason for each row is
# in README.md; rows marked False may or may not show a witness when sampled.
MODEL_TABLE = {
    ("cr", "all"): True,
    ("acrz", "nonneg"): True,
    ("acrz", "all"): True,
    ("acr", "pos"): True,
    ("acr", "nonneg"): True,
    ("acr", "all"): True,
    ("iamd", "pos"): True,
    ("iamd", "nonneg"): False,
    ("iamd", "all"): False,
    ("damd", "pos"): True,
    ("damd", "nonneg"): False,
    ("damd", "all"): False,
    ("iamdz", "nonneg"): True,
    ("iamdz", "all"): True,
    ("damdz", "nonneg"): True,
    ("damdz", "all"): True,
    ("imd", "all"): True,
    ("dmd", "all"): True,
    ("ratzi", "all"): True,
    ("ratzd", "all"): True,
    ("ratiaz", "nonneg"): True,
    ("ratiaz", "all"): True,
    ("ratdaz", "nonneg"): True,
    ("ratdaz", "all"): True,
    ("ratiaz-alt", "nonneg"): True,
    ("ratiaz-alt", "all"): False,
    ("ratdaz-alt", "nonneg"): True,
    ("ratdaz-alt", "all"): False,
    ("ratiaz-gil", "nonneg"): True,
    ("ratiaz-gil", "all"): False,
    ("ratdaz-gil", "nonneg"): True,
    ("ratdaz-gil", "all"): False,
}

DEEP_N = 3000


# --- trees -----------------------------------------------------------------


def add(*xs):
    out = xs[0]
    for x in xs[1:]:
        out = (ADD, out, x)
    return out


def mul(*xs):
    out = xs[0]
    for x in xs[1:]:
        out = (MUL, out, x)
    return out


def inv(x):
    return (INV, x)


def pw(x, n):
    return (POW, x, n)


def summands(t):
    """The operands of a left-nested sum, left to right."""
    out = []
    while isinstance(t, tuple) and t[0] == ADD:
        out.append(t[2])
        t = t[1]
    out.append(t)
    return out[::-1]


_PREC = {ADD: 1, MUL: 2, DIV: 2, NEG: 3, INV: 4, POW: 4}


def render(t, divisive: bool = False) -> str:
    """Program syntax with minimal parentheses; ``divisive`` writes u^-1 as 1 / u."""
    return _render(t, divisive)[0]


def _render(t, divisive):
    if isinstance(t, str):
        return t, 5
    op = t[0]
    if op == INV and divisive:
        return f"1 / {_child(t[1], 3, divisive)}", 2
    if op == INV:
        return f"{_child(t[1], 5, divisive)}^-1", 4
    if op == POW:
        return f"{_child(t[1], 5, divisive)}^{t[2]}", 4
    if op == NEG:
        return f"-{_child(t[1], 3, divisive)}", 3
    prec = _PREC[op]
    sep = " + " if op == ADD else f" {op} "
    return f"{_child(t[1], prec, divisive)}{sep}{_child(t[2], prec + 1, divisive)}", prec


def _child(t, minimum, divisive):
    text, prec = _render(t, divisive)
    return text if prec >= minimum else f"({text})"


def divisive(t):
    """The tree with every u^-1 written as 1 / u (the program's inv_to_div)."""
    if isinstance(t, str):
        return t
    if t[0] == INV:
        return (DIV, "1", divisive(t[1]))
    if t[0] == POW:
        return (POW, divisive(t[1]), t[2])
    return (t[0], *(divisive(c) for c in t[1:]))


# --- axiom-instance rewrites (provable equalities) ---------------------------


def permute_sum(rng, t):
    parts = summands(t)
    rng.shuffle(parts)
    return add(*parts)


def rewrite_product(rng, factors, how):
    """A side provably equal to the product of ``factors`` (each a (sum, exponent) pair).

    permute: commuted factors and summands; regroup: right-nested
    product; distribute: one power's last factor multiplied out over its
    summands (always the first factor, so the cost is the same for every
    seed); cancel: an extra factor s * s^-1 with s a zero-free sum.
    """
    shuffled = [(permute_sum(rng, f), e) for f, e in factors]
    first = shuffled[0]
    rng.shuffle(shuffled)
    powers = [pw(f, e) for f, e in shuffled]
    if how == "permute":
        return mul(*powers)
    if how == "regroup":
        out = powers[-1]
        for p in reversed(powers[:-1]):
            out = (MUL, p, out)
        return out
    if how == "distribute":
        f, e = first
        rest = [pw(g, d) for g, d in shuffled if (g, d) != first]
        spread = add(*(mul(pw(f, e - 1), s) for s in summands(f)))
        return mul(spread, *rest)
    if how == "cancel":
        names = sorted(variables(factors[0][0]))
        s = add(rng.choice(names), "1")
        return mul(*powers, mul(s, inv(s)))
    raise ValueError(how)


# --- poly-expand -------------------------------------------------------------

# One row per medium product: summand kinds of the two factors ('v' a
# variable, 'q' a product of two variables, '1'), their exponents, how
# the true side is rewritten and how the false side is made false.  The
# factors differ in summand count and exponent, so swapping exponents
# changes the value at the all-ones point.
MEDIUM_SLOTS = (
    ("vvv1", 5, "qqv1", 4, "permute", "plus1"),
    ("vvvv1", 4, "qv1", 5, "regroup", "swap"),
    ("vvq1", 5, "vvvq1", 4, "distribute", "plus1"),
    ("vvv1", 6, "qq1", 4, "cancel", "swap"),
    ("qvv1", 5, "vvvv1", 4, "permute", "swap"),
    ("vv1", 7, "qvvv1", 4, "regroup", "plus1"),
    ("vvvq1", 4, "vq1", 6, "cancel", "plus1"),
    ("vvv1", 5, "qqvv1", 4, "distribute", "swap"),
)
NAME_POOL = ("a", "b", "c", "d", "p", "q", "r", "s", "u", "v", "w", "x", "y", "z")


def _sum_of_kinds(kinds, names):
    """One summand per kind: the i-th 'v' is names[i], the j-th 'q' is names[j] * names[j+1].

    The seed only renames (``names`` is a seeded sample in seeded order),
    so every seed gets the same polynomial shape.
    """
    parts, nv, nq = [], 0, 0
    for kind in kinds:
        if kind == "v":
            parts.append(names[nv % len(names)])
            nv += 1
        elif kind == "q":
            parts.append(mul(names[nq % len(names)], names[(nq + 1) % len(names)]))
            nq += 1
        else:
            parts.append("1")
    return add(*parts)


def _medium_pair(rng, slot, nvars=4):
    kinds1, e1, kinds2, e2, how, falsify = slot
    names = rng.sample(NAME_POOL, nvars)
    f1 = _sum_of_kinds(kinds1, names)
    f2 = _sum_of_kinds(kinds2, names[::-1])
    base = mul(pw(f1, e1), pw(f2, e2))
    true_side = rewrite_product(rng, [(f1, e1), (f2, e2)], how)
    if falsify == "plus1":
        false_side = add(true_side, "1")
    else:
        false_side = mul(pw(f1, e2), pw(f2, e1))
    return base, true_side, false_side


def _equation(lhs, rhs, expect, theory):
    item = {"lhs": render(lhs), "rhs": render(rhs), "expect": expect, "theory": theory,
            "_l": lhs, "_r": rhs}
    if theory in ("damd", "ratdaz-gil"):
        item["_l"], item["_r"] = divisive(lhs), divisive(rhs)
        item["lhs"], item["rhs"] = render(item["_l"]), render(item["_r"])
    return item


def _term(tree, env=None, carrier="pos"):
    item = {"text": render(tree), "_t": tree}
    if env is not None:
        item["env"] = {v: str(q) for v, q in sorted(env.items())}
        item["carrier"] = carrier
    return item


POSITIVE_VALUES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(5, 3), Fraction(4, 5))


def _positive_env(rng, tree):
    """Fixed values in a seeded order, so every seed evaluates numbers of the same size."""
    values = list(POSITIVE_VALUES)
    names = sorted(variables(tree))
    rng.shuffle(values)
    return dict(zip(names, values))


def _role_env(base, values):
    """``values`` given to the variables of ``base`` in the order they first occur.

    A medium product's variables occur in the order of their roles, so
    every seed gets the same numbers in the same places: the same cost.
    """
    names = dict.fromkeys(t for t in tokens(base) if isinstance(t, str) and t[0].isalpha())
    return {v: Fraction(q) for v, q in zip(names, values)}


def _nonneg_env(rng, tree):
    return {v: Fraction(rng.choice((0, 0, 1, 2, 3, 5)), rng.randint(1, 4))
            for v in sorted(variables(tree))}


def _renamed(tree, names):
    """``tree`` with each variable ``v`` replaced by ``names[v]``."""
    if isinstance(tree, str):
        return names.get(tree, tree)
    if tree[0] == POW:
        return (POW, _renamed(tree[1], names), tree[2])
    return (tree[0], *(_renamed(c, names) for c in tree[1:]))


def _closed_instance(tree, env):
    """``tree`` with each variable replaced by the numeral of its (natural) value."""
    if isinstance(tree, str):
        return str(env[tree].numerator) if tree in env else tree
    if tree[0] == POW:
        return (POW, _closed_instance(tree[1], env), tree[2])
    return (tree[0], *(_closed_instance(c, env) for c in tree[1:]))


def _layer_items(rng, trees, env_fn):
    """Punched evaluation, the definedness class and both translations of ``trees``.

    ``trees`` are inversive and 0-free or iamdz terms; the division side of
    each translation is their divisive twin.
    """
    punch, classify, translate = [], [], []
    for tree in trees:
        env = env_fn(rng, tree)
        punch.append({**_term(tree, env, "nonneg"), "punch": "inv0"})
        classify.append(_term(tree, env, "nonneg"))
        translate.append({**_term(tree, env, "nonneg"), "to": "div"})
        translate.append({**_term(divisive(tree), env, "nonneg"), "to": "inv"})
    return {"punch": punch, "classify": classify, "translate": translate}


def poly_expand(rng, smoke):
    big_f = add("x", "y", "z", "w", "1")
    big_g = add(mul("x", "y"), mul("z", "w"), "x", "1")
    e_f, e_g = (3, 2) if smoke else (12, 8)
    big = mul(pw(big_f, e_f), pw(big_g, e_g))
    big_true = rewrite_product(rng, [(big_f, e_f), (big_g, e_g)], "permute")
    big_false = add(big_true, "1")
    slots = MEDIUM_SLOTS[:2] if smoke else MEDIUM_SLOTS
    pairs = [_medium_pair(rng, slot) for slot in slots]
    small = [_medium_pair(rng, ("vv1", 2, "q1", 3, how, fal), nvars=3)
             for how, fal in (("permute", "plus1"), ("cancel", "swap"))]

    iamd = [{**_equation(big, big_true, True, "iamd"), "heavy": True},
            {**_equation(big, big_false, False, "iamd"), "heavy": True}]
    for base, t, f in pairs:
        iamd += [_equation(base, t, True, "iamd"), _equation(base, f, False, "iamd"),
                 _equation(base, t, True, "damd"), _equation(base, f, False, "damd")]
    gil = []
    for base, t, f in small:
        gil += [_equation(base, t, True, "ratiaz-gil"), _equation(base, f, False, "ratiaz-gil"),
                _equation(base, t, True, "ratdaz-gil"), _equation(base, f, False, "ratdaz-gil")]
    # The numerator's coefficient sum is its value at the all-ones point:
    # 5^12 * 4^8 for the ROADMAP product, (x + y + z + w + 1)^12 * (x*y + z*w + x + 1)^8.
    normalize = ([{**_term(big), "coeff_sum": 5**e_f * 4**e_g, "heavy": True}]
                 + [_term(t) for _, t, _ in pairs])
    terms = [big, big_true] + [x for pair in pairs for x in pair]
    evals = [_term(x, _role_env(base, POSITIVE_VALUES)) for base, t, f in pairs for x in (base, t, f)]
    closed = []
    for base, t, _ in pairs[:4]:
        env = _role_env(base, (1, 2, 2, 3))
        cb, ct = _closed_instance(base, env), _closed_instance(t, env)
        closed += [_equation(cb, ct, True, "closed:iamd"), _equation(cb, add(ct, "1"), False, "closed:iamd")]
    base, t, f = small[0]
    cli = [
        _cli_decide(base, t, True, "iamd"),
        _cli_decide(base, f, False, "damd"),
        _cli_normalize(t, "iamd"),
        _cli_eval(t, _positive_env(rng, t), "pos"),
    ]
    return {
        "roundtrip": [_term(t) for t in terms],
        "eval": evals,
        "closed": closed,
        "normalize": normalize,
        "iamd": iamd,
        "gil": gil,
        "check_model": [["iamd", "pos"], ["damd", "pos"], ["acr", "pos"]],
        "cli_main": cli,
        "cli_cold": cli,
        **_layer_items(rng, [t for _, t, _ in pairs], _positive_env),
    }


# --- gil-split ---------------------------------------------------------------


def gil_family(rng, n):
    """Sum of v_i * v_i^-1 against the sum of v_i^-1 * v_i, in seeded orders."""
    names = sorted(rng.sample(NAME_POOL, n))
    lhs = [mul(v, inv(v)) for v in names]
    rhs = [mul(inv(v), v) for v in names]
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    return add(*lhs), add(*rhs)


def numeral_tree(n):
    return add(*["1"] * n)


def _random_term(rng, ops, has_zero, leaves, size):
    """A random tree with exactly ``size`` operators over ``leaves``, 1 and maybe 0."""
    if size == 0:
        return rng.choice(list(leaves) + ["1"] + (["0"] if has_zero else []))
    op = rng.choice(sorted(ops))
    if op in (NEG, INV):
        return (op, _random_term(rng, ops, has_zero, leaves, size - 1))
    k = rng.randint(0, size - 1)
    return (op, _random_term(rng, ops, has_zero, leaves, k),
            _random_term(rng, ops, has_zero, leaves, size - 1 - k))


def _with_all_vars(rng, t, names):
    """``t`` times a sum of every name, so each small equation has all its variables."""
    order = list(names)
    rng.shuffle(order)
    return mul(t, add(*order))


def _certified_false(lhs, candidate, points):
    """``candidate`` if some point separates it from ``lhs``, else lhs + 1 (false everywhere)."""
    for env in points:
        if evaluate(lhs, env) != evaluate(candidate, env):
            return candidate
    return add(lhs, "1")


def _zero_points(names):
    points = [{v: Fraction(1) for v in names}]
    for zero in names:
        points.append({v: Fraction(0 if v == zero else 1) for v in names})
    points.append({v: Fraction(0) for v in names})
    return points


def _gil_true_rewrite(rng, t, names, k):
    """The ``k``-th (cyclically) iamdz axiom instance, applied at the root of ``t``.

    The instances cycle rather than being drawn, so every seed has the same
    mix of them: some grow the term threefold, which the GIL split pays for.
    """
    v = rng.choice(names)
    instances = (
        lambda: add(t, "0"),
        lambda: mul("1", t),
        lambda: inv(inv(t)),
        lambda: mul(t, mul(t, inv(t))),
        lambda: add(mul("0", v), t),
        lambda: mul(t, add("1", "0")),
    )
    return instances[k % len(instances)]()


def _small_gil_pairs(rng, count):
    names = ["x", "y", "z"]
    pairs = []
    for i in range(count):
        t = _with_all_vars(rng, _random_term(rng, {ADD, MUL, INV}, True, names, 3), names)
        true_side = _gil_true_rewrite(rng, t, names, i)
        v = rng.choice(names)
        candidate = mul(t, mul(v, inv(v))) if i % 2 else add(t, mul(v, inv(v)))
        false_side = _certified_false(t, candidate, _zero_points(names))
        pairs.append((t, true_side, false_side))
    return pairs


def gil_split(rng, smoke):
    sizes = range(2, 4) if smoke else range(4, 8)
    family = [(n, *gil_family(rng, n)) for n in sizes]
    small = _small_gil_pairs(rng, 2)
    gil, gil_small = [], []
    for n, lhs, rhs in family:
        # The largest true case split takes seconds; it runs once per round.
        heavy = {"heavy": n == sizes[-1]}
        gil += [{**_equation(lhs, rhs, True, "ratiaz-gil"), **heavy},
                {**_equation(lhs, rhs, True, "ratdaz-gil"), **heavy},
                _equation(lhs, numeral_tree(n), False, "ratiaz-gil"),
                _equation(lhs, add(rhs, "1"), False, "ratdaz-gil")]
    for t, good, bad in small:
        gil_small += [_equation(t, good, True, "ratiaz-gil"), _equation(t, bad, False, "ratiaz-gil"),
                      _equation(t, good, True, "ratdaz-gil"), _equation(t, bad, False, "ratdaz-gil")]
    iamd = []
    for n, lhs, rhs in family:
        iamd += [_equation(lhs, rhs, True, "iamd"), _equation(lhs, numeral_tree(n), True, "iamd"),
                 _equation(lhs, numeral_tree(n + 1), False, "iamd")]
    terms = [x for _, lhs, rhs in family for x in (lhs, rhs)]
    evals = []
    for t in terms:
        names = sorted(variables(t))
        for env in _zero_points(names)[:3]:
            evals.append(_term(t, env, "nonneg"))
    closed = []
    for n, lhs, rhs in family:
        # Every other name is 0, so each seed has the same number of zeros.
        env = {v: Fraction(i % 2) for i, v in enumerate(sorted(variables(lhs)))}
        cl, cr = _closed_instance(lhs, env), _closed_instance(rhs, env)
        closed += [_equation(cl, cr, True, "closed:iamdz"),
                   _equation(cl, numeral_tree(n), False, "closed:iamdz")]
    _, lhs4, rhs4 = family[0]
    t, good, bad = small[0]
    cli = [
        _cli_decide(lhs4, rhs4, True, "ratiaz-gil"),
        _cli_decide(t, bad, False, "ratiaz-gil"),
        _cli_normalize(good, "iamdz"),
        _cli_eval(t, _zero_points(["x", "y", "z"])[1], "nonneg"),
    ]
    twins = [divisive(t) for t in terms]
    instances = [x for item in closed for x in (item["_l"], item["_r"])]
    return {
        "roundtrip": [_term(t) for t in terms + twins + instances],
        "eval": evals,
        "closed": closed,
        "normalize": [_term(lhs) for _, lhs, _ in family] + [_term(rhs) for _, _, rhs in family],
        "iamd": iamd,
        "gil": gil,
        "gil_small": gil_small,
        "check_model": [["ratiaz-gil", "nonneg"], ["ratdaz-gil", "nonneg"],
                        ["iamdz", "nonneg"], ["damdz", "nonneg"]],
        "cli_main": cli,
        "cli_cold": cli,
        **_layer_items(rng, [x for _, lhs, rhs in family for x in (lhs, rhs)], _nonneg_env),
    }


# --- term-mix ----------------------------------------------------------------


def _env_for(rng, tree, carrier):
    env = {}
    for v in sorted(variables(tree)):
        if carrier == "pos":
            env[v] = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        elif carrier == "nonneg":
            env[v] = Fraction(rng.choice((0, 1, 2, 3)), rng.randint(1, 5))
        else:
            env[v] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return env


def _iamd_pairs(rng, count):
    names = ["x", "y", "z"]
    pairs = []
    for i in range(count):
        t = _with_all_vars(rng, _random_term(rng, {ADD, MUL, INV}, False, names, 3), names)
        s = add(rng.choice(names), "1")
        true_side = rng.choice((
            lambda: mul(t, mul(s, inv(s))),
            lambda: mul("1", t),
            lambda: inv(inv(t)),
            lambda: (t[0], t[2], t[1]) if isinstance(t, tuple) and t[0] in (ADD, MUL) else mul(t, "1"),
        ))()
        false_side = add(t, "1") if i % 2 else mul(t, add("1", "1"))
        pairs.append((t, true_side, false_side))
    return pairs


def term_mix(rng, smoke):
    per_sig = 4 if smoke else 40
    names = ["x", "y", "z"]
    terms = []
    for sig, (ops, has_zero, carrier) in SIGNATURES.items():
        for _ in range(per_sig):
            t = _random_term(rng, ops, has_zero, names, 6)
            terms.append({"sig": sig, **_term(t, _env_for(rng, t, carrier), carrier)})
    punched = []
    for item in terms:
        sig = item["sig"]
        if sig in ("iamdz", "iamd"):
            punches = ["inv0"]
        elif sig in ("damdz", "damd"):
            punches = ["divall0", "divnz0"]
        else:
            continue
        env = _env_for(rng, item["_t"], "nonneg")
        for punch in punches:
            punched.append({**_term(item["_t"], env, "nonneg"), "punch": punch})
    classify = [_term(i["_t"], _env_for(rng, i["_t"], "nonneg"), "nonneg")
                for i in terms if i["sig"] in ("iamdz", "iamd")]
    translate = [{**_term(i["_t"], _env_for(rng, i["_t"], SIGNATURES[i["sig"]][2]),
                            SIGNATURES[i["sig"]][2]),
                  "to": "inv" if i["sig"] in ("dmd", "damd", "damdz") else "div"}
                 for i in terms]
    closed = []
    for sig, (ops, has_zero, _) in SIGNATURES.items():
        for k in range(2 if smoke else 16):
            leaves = ["1", "2", "3"] + (["0"] if has_zero else [])
            t = _random_term(rng, ops, has_zero, leaves, 4)
            if k % 2:
                closed.append(_equation(t, add(t, "1"), False, f"closed:{sig}"))
            else:
                closed.append(_equation(t, mul(t, "1"), True, f"closed:{sig}"))
    opens = [_with_all_vars(rng, _random_term(rng, {ADD, MUL, INV}, False, names, 4), names)
             for _ in range(6 if smoke else 60)]
    iamd = []
    for t, good, bad in _iamd_pairs(rng, 2 if smoke else 40):
        iamd += [_equation(t, good, True, "iamd"), _equation(t, bad, False, "iamd"),
                 _equation(t, good, True, "damd"), _equation(t, bad, False, "damd")]
    # The GIL pairs keep one set of shapes for every seed, and the seed
    # renames their variables: from pair to pair the split's cost varies
    # fivefold, so 24 pairs drawn afresh moved their median by 20 % between seeds.
    rename = dict(zip(names, rng.sample(names, 3)))
    gil = []
    for pair in _small_gil_pairs(random.Random("term-mix/gil"), 2 if smoke else 24):
        t, good, bad = (_renamed(x, rename) for x in pair)
        gil += [_equation(t, good, True, "ratiaz-gil"), _equation(t, bad, False, "ratiaz-gil"),
                _equation(t, good, True, "ratdaz-gil"), _equation(t, bad, False, "ratdaz-gil")]
    t0 = terms[0]["_t"]
    pair = _iamd_pairs(rng, 1)[0]
    gpair = _small_gil_pairs(rng, 1)[0]
    iamdz_term = next(i["_t"] for i in terms if i["sig"] == "iamdz")
    damd_term = next(i["_t"] for i in terms if i["sig"] == "damd")
    cli = [
        _cli_parse(t0),
        _cli_eval(t0, _env_for(rng, t0, "all"), "all"),
        _cli_eval(iamdz_term, _env_for(rng, iamdz_term, "nonneg"), "nonneg", punch="inv0"),
        _cli_normalize(pair[1], "iamd"),
        _cli_decide(pair[0], pair[1], True, "iamd"),
        _cli_decide(gpair[0], gpair[2], False, "ratiaz-gil"),
        _cli_defined(iamdz_term),
        _cli_translate(damd_term, "inv"),
    ]
    model_pairs = [list(pair) for pair in MODEL_TABLE]
    return {
        "roundtrip": [_term(i["_t"]) for i in terms] + [_term(t) for t in opens],
        "eval": terms,
        "punch": punched,
        "classify": classify,
        "translate": translate,
        "closed": closed,
        "normalize": [_term(t) for t in opens],
        "iamd": iamd,
        "gil": gil,
        "check_model": model_pairs[:4] if smoke else model_pairs,
        "cli_main": cli,
        "cli_cold": cli[:4] if smoke else cli,
        "deep": DEEP_OPS,
    }


# Deep terms: each operation is listed with the answer a stack-safe term
# core must give.  They do not depend on the seed.
DEEP_OPS = [
    {"op": "roundtrip", "text": str(DEEP_N)},
    {"op": "roundtrip", "text": f"x^{DEEP_N}"},
    {"op": "split_inverse", "text": str(DEEP_N)},
    {"op": "hash", "text": str(DEEP_N)},
    {"op": "eq", "text": str(DEEP_N)},
    {"op": "eval_total", "text": str(DEEP_N)},
    {"op": "eval_total", "text": f"x^{DEEP_N}"},
    {"op": "zero_elim", "text": str(DEEP_N)},
    {"op": "term_to_dict", "text": str(DEEP_N)},
    {"op": "term_size", "text": str(DEEP_N)},
    {"op": "cli_main", "text": str(DEEP_N)},
    {"op": "cli_cold", "text": str(DEEP_N)},
]


# --- CLI commands --------------------------------------------------------------


def _argv(command, positionals, options=()):
    """Options first and terms after "--", so a term starting with "-" stays a term."""
    return [command, *options, "--format", "structured", "--", *positionals]


def _cli_decide(lhs, rhs, expect, theory):
    item = _equation(lhs, rhs, expect, theory)
    item["argv"] = _argv("decide", [item["lhs"], item["rhs"]], ["--theory", theory])
    item["kind"] = "decide"
    return item


def _cli_normalize(tree, sig):
    return {"kind": "normalize", "argv": _argv("normalize", [render(tree)], ["--sig", sig]),
            "_t": tree}


def _cli_eval(tree, env, carrier, punch=None):
    assign = ",".join(f"{v}={q}" for v, q in sorted(env.items()))
    options = ["--assign", assign] + (["--punch", punch] if punch else ["--carrier", carrier])
    return {"kind": "eval", "argv": _argv("eval", [render(tree)], options), "punch": punch,
            "_t": tree, "_env": env}


def _cli_parse(tree):
    return {"kind": "parse", "argv": _argv("parse", [render(tree)]), "_t": tree}


def _cli_defined(tree):
    return {"kind": "defined", "argv": _argv("defined", [render(tree)]), "_t": tree}


def _cli_translate(tree, to):
    return {"kind": "translate", "argv": _argv("translate", [render(tree)], ["--to", to]),
            "_t": tree}


_GENERATORS = {"poly-expand": poly_expand, "gil-split": gil_split, "term-mix": term_mix}


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = _GENERATORS[workload](rng, smoke)
    inputs["repeat"] = 1 if smoke else REPEAT[workload]
    for key in ("punch", "classify", "translate", "gil_small", "deep"):
        inputs.setdefault(key, [])
    return inputs


def public(inputs: dict) -> dict:
    """``inputs`` without the benchmark's own trees, as --print-inputs shows them."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if not k.startswith("_")}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    return strip(inputs)
