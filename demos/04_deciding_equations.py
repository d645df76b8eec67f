"""
Deciding equations between meadow terms
=======================================

"""

# Provability from the zero-free inversive theory is decidable: split
# both sides into polynomial fractions and compare cross products.  The
# products stay factored, so the factors both cross products share cancel
# first; a true verdict shows the matched normals, the cross products
# left after that (here x cancels, leaving 1 vs 1).  A false verdict
# always carries a counterexample assignment that separates the two sides.
from meadows import Var, ONE, Inv, Mul, decide_iamd, parse_term, render

x = Var("x")
y = Var("y")

d = decide_iamd(Mul(x, Inv(x)), ONE)
print("x * x^-1 = 1 over iamd:", d.verdict)
print("  evidence:", d.evidence.render())

d = decide_iamd(Inv(Mul(x, y)), Mul(Inv(x), Inv(y)))
print("(x*y)^-1 = x^-1 * y^-1:", d.verdict)

d = decide_iamd(x, y)
print("x = y:", d.verdict)
print("  evidence:", d.evidence.render())

# With 0 in the signature the unrestricted inverse law fails: the
# zero-totalized inverse gives 0 * 0^-1 = 0.  The procedure for the
# general inverse law finds the zero point immediately.
from meadows import decide_iamdz_gil

d = decide_iamdz_gil(Mul(x, Inv(x)), ONE)
print()
print("x * x^-1 = 1 over ratiaz-gil:", d.verdict)
print("  evidence:", d.evidence.render())

# A strictly positive sum of squares is provably invertible though:
squares = parse_term("(1 + x^2 + y^2) * (1 + x^2 + y^2)^-1")
print("(1 + x^2 + y^2)(...)^-1 = 1:", decide_iamdz_gil(squares, ONE).verdict)

# The equivalence between the two rational-number specifications rests
# on one equation; its decision runs the zero-set case split, and the
# trace records the cases it decided.  Both inverted arguments vanish
# exactly when x does, so y = 0 is no case of its own.
lhs = parse_term("(x * (x + y)) * (x * (x + y))^-1")
rhs = parse_term("x * x^-1")
d = decide_iamdz_gil(lhs, rhs)
print()
print(render(lhs), "=", render(rhs), "->", d.verdict)
print("  trace:", d.evidence.render())

# Divisive equations are decided through the p / q  ==  p * q^-1
# translation; the theory name picks the inversive procedure.
from meadows import TheoryId, decide_divisive, Div

print()
print("x / x = 1 over damd:      ", decide_divisive(Div(x, x), ONE, TheoryId.DAMD).verdict)
d = decide_divisive(Div(x, x), ONE, TheoryId.RATDAZ_GIL)
print("x / x = 1 over ratdaz-gil:", d.verdict, "--", d.evidence.render())

# Closed terms need no theory at all: equality in the initial algebra
# is value equality, decided by exact evaluation.
from meadows import SignatureId, decide_closed

d = decide_closed(parse_term("2 * 3^-1"), parse_term("4 * 6^-1"), SignatureId.IAMD)
print()
print("2/3 = 4/6 closed:", d.verdict, "--", d.evidence.render())
