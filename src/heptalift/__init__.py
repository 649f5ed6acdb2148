"""Exact arithmetic for the exceptional Jordan algebra over the integral
octonions, its local invariants and densities, the degree-3 lift attached
to an elliptic eigenform, and the period of that lift.

The stack, bottom to top:

- exactnum: Laurent polynomials and their series expansion, symbolic
  zeta/pi monomials, interval-style big floats, rational reconstruction.
- cayley: the integral octonion order on E8; exact composition algebra.
- jordan: 3x3 Hermitian octonion matrices, determinant, adjoint, the
  generator actions of the structure group.
- padic: local diagonalization and elementary divisors at a prime; it
  owns primes and factorizations: one sieve for ranges of integers, and
  Miller-Rabin with Brent's rho for single integers.
- density: local representation densities, the series identity checks,
  the exact mass formula.
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

from . import cayley, census, density, exactnum, genfun, jordan, lift, lvalue, padic, siegel
from .cayley import *
from .census import *
from .density import *
from .exactnum import *
from .genfun import *
from .jordan import *
from .lift import *
from .lvalue import *
from .padic import *
from .siegel import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (cayley, census, density, exactnum, genfun, jordan, lift, lvalue, padic, siegel)
    for name in module.__all__
)
