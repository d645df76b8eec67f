"""
Punched evaluation and the definedness criterion
================================================

"""

# Zero-totalized semantics makes 0^-1 = 0 and q / 0 = 0, so every term
# denotes.  Punching re-introduces partiality: the same algebra with
# the operation made undefined at the contested point.  Three punches
# are available:
#
#   inv0    0^-1 undefined          (inversive terms)
#   divall0 q / 0 undefined for all q    (divisive terms)
#   divnz0  q / 0 undefined for q != 0, but 0 / 0 = 0
from meadows import (
    Defined,
    PunchId,
    UNDEFINED,
    ZERO,
    ONE,
    Inv,
    Mul,
    Div,
    eval_punched,
    eval_total,
    parse_term,
    render,
)

print("total semantics:   0^-1 =", eval_total(Inv(ZERO), {}))
print("punched semantics: 0^-1 =", eval_punched(Inv(ZERO), {}, PunchId.INV0))

print()
print("1 / 0 under divall0:", eval_punched(Div(ONE, ZERO), {}, PunchId.DIV_ALL0))
print("0 / 0 under divall0:", eval_punched(Div(ZERO, ZERO), {}, PunchId.DIV_ALL0))
print("0 / 0 under divnz0: ", eval_punched(Div(ZERO, ZERO), {}, PunchId.DIV_NONZERO0))

# Undefined propagates strictly: once any subterm is undefined the whole
# term is, even where the total semantics would have absorbed it.
t = Mul(ZERO, Inv(ZERO))
print()
print(render(t), "totally:", eval_total(t, {}), " punched:", eval_punched(t, {}, PunchId.INV0))

# The definedness classifier answers "does this term avoid the punched
# point" without evaluating: an inductive criterion building the sets
# of provably non-zero (nz) and provably defined (def) terms.
from meadows import DefClass, classify_def

for source in ("2^-1", "1 + x", "0 * x", "x", "0^-1", "x * 0^-1"):
    print(f"classify {source:8s} ->", classify_def(parse_term(source)).value)

# The criterion is sound: nz and def terms always evaluate, and nz ones
# are strictly positive.  It is conservative about variables, which
# range over all of the carrier including 0: x^-1 falls outside even
# though every instance with x > 0 is perfectly defined.
from fractions import Fraction

t = parse_term("x^-1")
print()
print("x^-1 classifies", classify_def(t).value,
      "yet at x = 2 it evaluates to",
      eval_punched(t, {"x": Fraction(2)}, PunchId.INV0))

# The additive rule needs care.  Read literally, "a non-zero summand
# makes the sum non-zero" would classify 1 + 0^-1 as non-zero, yet the
# term is undefined.  The rule therefore also requires the other
# summand to be defined, and 1 + 0^-1 falls outside Def.
t = parse_term("1 + 0^-1")
print()
print("1 + 0^-1 classifies:", classify_def(t).value)
print("1 + 0^-1 evaluates: ", eval_punched(t, {}, PunchId.INV0))
