"""Exact arithmetic for the exceptional Jordan algebra over the integral
octonions, its local invariants and densities, the degree-3 lift attached
to an elliptic eigenform, and the period of that lift.

The stack, bottom to top:

- exactnum: Laurent polynomials and their series expansion, symbolic
  zeta/pi monomials, interval-style big floats, rational reconstruction.
- cayley: the integral octonion order on E8; exact composition algebra.
- jordan: 3x3 Hermitian octonion matrices, determinant, adjoint, the
  generator actions of the structure group.
- padic: local diagonalization and elementary divisors at a prime.
- density: local representation densities, the series identity checks,
  structure-group orders, the exact mass formula.
- siegel: local series polynomials, closed form against a recursion
  oracle, palindromic normalization.
- genfun: the rank-one generating identity, its Euler-factor rewrite,
  the residue algebra, and the rational period constant gamma_k.
- lift: eigenvalue tables (builtin tau generator or CSV), local factors
  and Fourier coefficients of the lift.
- lvalue: symmetric-square L-values by smoothed and plain summation,
  the period pipeline, the rationality probe.
- census: exhaustive rank census of the 2^27-element residue space and
  the bridge from counts to a local density.
- acceptance / cli: the twelve-gate acceptance suite and the JSON CLI.
"""

from .cayley import (
    Octonion,
    QQ,
    ZZ,
    Zmod,
    gram_det,
    structure_constants,
    trace_pairing_gram,
)
from .census import beta_from_census, census_f2, pack_f2, rank_f2, sample_rank_fractions, unpack_f2
from .density import (
    MASS_CONSTANT,
    alpha_p,
    beta_exps,
    beta_p,
    constants,
    group_orders,
    igusa_verify,
    mass,
)
from .exactnum import (
    BigFloat,
    LaurentPoly,
    SpecialValue,
    bernoulli,
    frac_str,
    rational_reconstruct,
    zeta_special,
)
from .genfun import (
    H_verify,
    exponent_triples,
    gamma_RS,
    gamma_k,
    gamma_k_derived,
    hp_closed_form,
    lambda_p,
    rs_closed_residue,
    rs_euler_factors,
)
from .jordan import (
    JordanElement,
    apply_word,
    word_multiplier,
)
from .lift import (
    EigenData,
    eigen_delta,
    eigen_from_csv,
    eigen_from_rows,
    fourier_coeff,
    local_factor,
    sym2_coeffs,
    tau_table,
)
from .lvalue import (
    CRITICAL_POINTS,
    gamma_infinity,
    period,
    period_report,
    rationality_probe,
    sym2_dirichlet_sum,
    sym2_lvalue,
)
from .padic import (
    ElemDivisors,
    Reduction,
    elementary_divisors,
    factorize,
    genus_invariants,
    is_prime,
    reduce_at,
)
from .siegel import (
    SiegelPoly,
    f_poly,
    f_poly_oracle,
    symmetric_coefficients,
    tilde_f,
)

__version__ = "0.1.0"

__all__ = [
    "BigFloat",
    "CRITICAL_POINTS",
    "EigenData",
    "ElemDivisors",
    "H_verify",
    "JordanElement",
    "LaurentPoly",
    "MASS_CONSTANT",
    "Octonion",
    "QQ",
    "Reduction",
    "SiegelPoly",
    "SpecialValue",
    "ZZ",
    "Zmod",
    "alpha_p",
    "apply_word",
    "bernoulli",
    "beta_exps",
    "beta_from_census",
    "beta_p",
    "census_f2",
    "constants",
    "eigen_delta",
    "eigen_from_csv",
    "eigen_from_rows",
    "elementary_divisors",
    "exponent_triples",
    "f_poly",
    "f_poly_oracle",
    "factorize",
    "fourier_coeff",
    "frac_str",
    "gamma_RS",
    "gamma_infinity",
    "gamma_k",
    "gamma_k_derived",
    "genus_invariants",
    "gram_det",
    "group_orders",
    "hp_closed_form",
    "igusa_verify",
    "is_prime",
    "lambda_p",
    "local_factor",
    "mass",
    "pack_f2",
    "period",
    "period_report",
    "rank_f2",
    "rational_reconstruct",
    "rationality_probe",
    "reduce_at",
    "rs_closed_residue",
    "rs_euler_factors",
    "sample_rank_fractions",
    "structure_constants",
    "sym2_coeffs",
    "sym2_dirichlet_sum",
    "sym2_lvalue",
    "symmetric_coefficients",
    "tau_table",
    "tilde_f",
    "trace_pairing_gram",
    "word_multiplier",
]
