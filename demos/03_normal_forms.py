"""
Normal forms: positive polynomials and exact rationals
======================================================

"""

# Inverse-free terms over {1, +, *} normalize to polynomials with
# strictly positive integer coefficients: distribute all products and
# merge equal monomials.  Equality of such terms is equality of the
# polynomial maps.
from meadows import Var, ONE, Add, Mul, Inv, numeral, poly_normal, render

x = Var("x")
y = Var("y")

square = Mul(Add(x, ONE), Add(x, ONE))
print(render(square), " normalizes to ", poly_normal(square).render())

product = Mul(numeral(2), numeral(3))
print(render(product), "normalizes to", poly_normal(product).render())

# Terms with the inverse split into a single fraction of positive
# polynomials: the inverse distributes over products and cancels with
# itself, so one inverse floats to the top.  No gcd cancellation is
# attempted; the decision procedure cancels only whole factors that its
# two cross products share.
from meadows import split_inverse

t = Add(x, Inv(y))
fraction = split_inverse(t)
print(render(t), "splits into", fraction.render())

# Closed terms reduce all the way to their value, a fractions.Fraction,
# which is always kept in lowest terms.  In the initial algebra two
# closed terms are provably equal exactly when their values are, so the
# value is the normal form over each of the seven signatures.
from meadows import SignatureId, closed_normal, parse_term

half_plus_third = parse_term("2^-1 + 3^-1")
print("2^-1 + 3^-1 =", closed_normal(half_plus_third, SignatureId.IAMD))

# With 0 in the signature the inverse is zero-totalized: 0^-1 = 0, and
# the normal form may be 0.
print("0^-1       =", closed_normal(parse_term("0^-1"), SignatureId.IAMDZ))
print("0 + 3/9    =", closed_normal(parse_term("0 + 3 * 9^-1"), SignatureId.IAMDZ))

# Full meadow terms (with - and ^-1 or /) take any sign.  A term must
# conform to the signature it is normalized over.
print("-(2/4)     =", closed_normal(parse_term("-(2 * 4^-1)"), SignatureId.IMD))
print("1/(1 + -1) =", closed_normal(parse_term("1 / (1 + -1)"), SignatureId.DMD))

# Open zero-carrying terms first have 0 eliminated: either everything
# collapses to 0 or a zero-free term remains.
from meadows import zero_elim, ZERO

t = Add(x, Mul(ZERO, y))
print(render(t), "  after zero elimination: ", render(zero_elim(t)))
print("0^-1 * x", "after zero elimination: ", render(zero_elim(Mul(Inv(ZERO), x))))

# Nested inverses square polynomial sizes, so normalization carries a
# monomial-count guardrail.
from meadows import SizeLimit, power

wide = power(Add(Add(x, y), ONE), 9)
try:
    split_inverse(wide, max_monomials=10)
except SizeLimit as exc:
    print("guardrail:", exc)
