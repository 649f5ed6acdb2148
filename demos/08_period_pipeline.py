"""The period of the lift: gamma_k pi^{-6k-3} L(1) L(5) L(9).

The three symmetric-square L-values sit at the critical points of the
analytically normalized completed function, evaluated here by a smoothed
approximate functional equation with explicit error bounds.  A plain
Dirichlet sum cross-checks the right edge, and rational reconstruction of
L-value ratios exposes the algebraic structure predicted for them.
"""

from heptalift import (
    eigen_delta,
    period_report,
    rationality_probe,
    sym2_dirichlet_coeffs,
    sym2_dirichlet_sum,
    sym2_lvalue,
    triple_divisor_count,
)

eigen = eigen_delta(2000)

# the three critical values, 20 significant digits
for s in (1, 5, 9):
    lv = sym2_lvalue(eigen, s, digits=20)
    print("L(%d) = %s" % (s, lv))

# independent route at s = 9: plain summation with a tail bound
smoothed = sym2_lvalue(eigen, 9, digits=20)
plain = sym2_dirichlet_sum(eigen, 9, 400, digits=20)
print("\nsmoothed - plain at s=9:", float(abs(smoothed.value - plain.value)))

# both tail bounds rest on |b(n)| <= d_3(n), the number of ordered
# factorizations n = d1 d2 d3
coeffs = sym2_dirichlet_coeffs(eigen, 400)
print("|b(n)| <= d_3(n) for n <= 400:",
      all(abs(b) <= triple_divisor_count(n) for n, b in enumerate(coeffs, 1)))

# the assembled period
report = period_report(10, eigen, digits=20)
print("\nperiod value:", report["value"])
print("gamma_10 =", report["gamma_k"])
print("pi power:", report["pi_power"])

# ratios of critical values against pi powers reconstruct as rationals
probe = rationality_probe(eigen, 10, digits=(20, 30))
print("\nL(5)/(L(1) pi^8)  =", probe["r5"])
print("L(9)/(L(1) pi^16) =", probe["r9"])
