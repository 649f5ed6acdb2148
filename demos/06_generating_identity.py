"""The rank-one generating identity and the rational period constant.

H_p(X,t) sums tilde-f values over all divisor profiles weighted by local
densities.  It has a closed product form (verified coefficientwise against
the orbit sum), regroups into zeta and symmetric-square Euler factors, and
feeds a residue computation whose output is the exact rational gamma_k.
"""

from heptalift import (
    H_verify,
    gamma_k,
    gamma_k_derived,
    hp_closed_form,
    lambda_p,
    rs_closed_residue,
    rs_euler_factors,
)

# the orbit sum and the product form agree through t^6 (exact, symbolic in X)
ok, report = H_verify(2, 6)
print("H_2 identity through t^6:", "ok" if ok else report)
print("t^1 coefficient of H_2:", lambda_p(2, 1))

h = hp_closed_form(2)
print("\nclosed form prefactor:", h.prefactor)
print("first numerator factor, in u = t/2^9:", h.numerator_factors[0])

# regrouped as zeta and symmetric-square local factors
r = rs_euler_factors(2)
print("\nEuler rewrite consistent:", r["consistent"])
print("zeta denominators:", [repr(f) for f in r["zeta_denominators"]])
print("one sym^2 denominator triple:", [repr(f) for f in r["sym2_denominators"][0]])

# the residue of the self series is a single monomial in pi^(1/2), odd zeta
# values and symmetric-square L-values
res = rs_closed_residue(10)
print("\nresidue:", res)

# dividing out the completed-L prefactor must leave a pure rational: gamma_k
for k in (10, 11, 12):
    g = gamma_k(k)
    assert gamma_k_derived(k) == g
    print("gamma_%d = %s" % (k, g))
