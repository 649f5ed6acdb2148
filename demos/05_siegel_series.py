"""Local series polynomials and their palindromic normalization.

For each prime and divisor profile the local series is a polynomial f(X)
with integer coefficients, f(0) = 1, and degree 3m1 + m2 + m3.  Two
independent constructions (an eight-term closed form and a three-step
recursion) must produce the same polynomial, and the normalized Laurent
form must be palindromic — that symmetry is the local functional equation
that powers the lift.
"""

from fractions import Fraction

from heptalift import f_poly, f_poly_oracle, tilde_f

p = 2
for m in ((0, 0, 1), (0, 1, 1), (1, 0, 2)):
    f = f_poly(p, *m)
    g = f_poly_oracle(p, *m)
    assert f.poly == g.poly
    print("p=2, m=%s: degree %d, coefficients %s" % (m, f.weight, f.coeffs()))

# the normalized form t(X) = X^m f(X^-2) is symmetric under X -> 1/X
f = f_poly(2, 1, 0, 2)
t = tilde_f(f)
print("\ntilde f for m=(1,0,2):", t)
assert t == t.subst_inverse()
print("palindromic: yes")
# its coefficient at X^j and X^-j, j = m, m-2, ..., is f's coefficient at X^((m-j)/2)
print("symmetric coefficients (descending):", [t.coeff(j) for j in range(f.weight, -1, -2)])
assert [t.coeff(j) for j in range(f.weight, -1, -2)] == f.coeffs()[: f.weight // 2 + 1]

# evaluation at a rational point, exactly
x = Fraction(1, 3)
print("\nf(1/3) =", f.evaluate(x))
assert f.evaluate(0) == 1
